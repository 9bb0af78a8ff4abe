"""Pivot extension and linearization tests against the frozen goldens."""

import copy
import dataclasses
import gc
import pickle
import re
import sys
import threading
import tracemalloc
import weakref

import numpy as np
import pytest

from fuzzorder import (
    FuzzyRelation,
    PivotStep,
    PreconditionError,
    certifying_family,
    check_order,
    clamp_extend,
    count_incomparable_entries,
    extends,
    is_linear,
    linearize,
    pivot_extend,
)

from fuzzorder import extension
from fuzzorder.cli import run_command
from fuzzorder.extension import _linear_grid, _pivot_grid, _raise_block, _runs
from fuzzorder.relation import _incomparable

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
    identity_relation,
)
from genutil import (
    block_sum,
    block_sums,
    closure_linearization,
    corpus,
    low_rescan,
    poset_orders,
    rescan_linearization,
    subnormal_regrade,
    tight_regrade,
)


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


@pytest.mark.parametrize(
    "policy, pair",
    [
        ([("a", "b"), ("b", "a")], "('a', 'b')"),
        ([("b", "a"), ("a", "b")], "('a', 'b')"),
        ([("a", "c"), (2, 1), (1, 2)], "('b', 'c')"),
        ([("c", "c")], "('c', 'c')"),
    ],
    ids=["ab-ba", "ba-ab", "by-index", "self"],
)
def test_override_list_that_contradicts_itself_is_rejected(order3, policy, pair):
    """A list orienting one pair both ways, or an element against itself, names the pair."""
    message = f"orients the pair {re.escape(pair)} both ways"
    with pytest.raises(ValueError, match=message):
        linearize(order3, policy=policy)
    # The list is checked before the order precondition.
    with pytest.raises(ValueError, match=message):
        linearize(FuzzyRelation(ORDER3_LABELS, np.zeros((3, 3))), policy=policy)


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


def _random_flips(r, seed):
    # An override list flipping each incomparable pair with probability 1/2,
    # and its orientation for the rescan
    coins = np.random.default_rng(seed).random(r.n * r.n) < 0.5
    flipped = {(j, i) for i, j in np.argwhere(_incomparable(r.grid)).tolist() if coins[i * r.n + j]}
    overrides = [(r.labels[a], r.labels[b]) for a, b in sorted(flipped)]
    return overrides, lambda i, j: (j, i) if (j, i) in flipped else (i, j)


def test_linearize_matches_the_closure_oracle(order3, order4, order7):
    """Pivots come from the 0/1 support alone, and the grid is r's max-min
    closure with the pivots set to 1: bit for bit, on the goldens, the corpus,
    every labeled poset up to n = 4 and the block sums up to n = 96, each also
    tight- and subnormal-regraded, under "low" and "high"; the goldens and
    block sums also under a random override list."""
    cases = [(o, True) for o in (order3, order4, order7, *block_sums()[:6])]
    cases += [(o, False) for o in (*corpus(300, max_n=12), *poset_orders(4))]
    for o, flips in cases:
        policies = ["low", "high", _random_flips(o, o.n)[0]] if flips else ["low", "high"]
        # a 0/1 order is its own regrade: each distinct relation once
        for r in dict.fromkeys((o, tight_regrade(o), subnormal_regrade(o))):
            support = FuzzyRelation(r.labels, (r.grid > 0.0).astype(float))
            for policy in policies:
                result = linearize(r, policy)
                grid, pivots = closure_linearization(r, policy)
                assert [(s.a.index, s.b.index) for s in result.trace] == pivots
                assert result.relation.grid.tobytes() == grid.tobytes()
                assert [(s.a.index, s.b.index) for s in linearize(support, policy).trace] == pivots


def _assert_policy_matches_rescan(r, policy, orient):
    result = linearize(r, policy)
    grid, steps = low_rescan(r) if policy == "low" else rescan_linearization(r.grid, r.labels, orient)
    assert result.relation.grid.tobytes() == grid.tobytes()
    if policy == "low":
        assert _linear_grid(r.grid).tobytes() == grid.tobytes()
    eager = [
        PivotStep(r.element(a), r.element(b), k, entries)
        for k, (a, b, entries) in enumerate(steps, start=1)
    ]
    assert eager == list(result.trace)  # meets steps whose entries nobody has read yet
    assert result.k == len(steps)
    assert result.m == int(((r.grid == 0.0) & (r.grid.T == 0.0)).sum())  # unit diagonal


def _assert_matches_rescan(r):
    for policy, orient in _policies(r):
        _assert_policy_matches_rescan(r, policy, orient)


GOLDENS = [(ORDER3_LABELS, ORDER3_GRID), (ORDER4_LABELS, ORDER4_GRID), (ORDER7_LABELS, ORDER7_GRID)]


@pytest.mark.parametrize("labels, grid", GOLDENS)
def test_linearize_matches_rescan_on_goldens(labels, grid):
    _assert_matches_rescan(FuzzyRelation(labels, grid))


def test_linearize_matches_rescan_on_corpus():
    for r in corpus(300, max_n=12):
        _assert_matches_rescan(r)


BLOCK_SIZES = [(5, 7), (12, 12, 12, 12), (12,) * 8]


@pytest.mark.parametrize("ordinal", [False, True])
@pytest.mark.parametrize("sizes", BLOCK_SIZES)
def test_linearize_matches_rescan_on_block_sums(sizes, ordinal):
    _assert_matches_rescan(block_sum(sizes, ordinal, seed=500))


@pytest.mark.parametrize("labels, grid", GOLDENS)
def test_linearize_matches_rescan_on_tight_goldens(labels, grid):
    """Grades one ulp apart: a comparison loosened by any epsilon breaks the match."""
    _assert_matches_rescan(tight_regrade(FuzzyRelation(labels, grid)))


def test_linearize_matches_rescan_on_tight_corpus():
    for r in corpus(300, max_n=12):
        _assert_matches_rescan(tight_regrade(r))


@pytest.mark.parametrize("ordinal", [False, True])
@pytest.mark.parametrize("sizes", BLOCK_SIZES)
def test_linearize_matches_rescan_on_tight_block_sums(sizes, ordinal):
    _assert_matches_rescan(tight_regrade(block_sum(sizes, ordinal, seed=500)))


def test_linearize_matches_rescan_under_random_flips_on_corpus():
    """Flipping pairs at random splits the cursor's runs at arbitrary points."""
    for k, r in enumerate(corpus(300, max_n=12)):
        _assert_policy_matches_rescan(r, *_random_flips(r, seed=k))


@pytest.mark.parametrize("ordinal", [False, True])
@pytest.mark.parametrize("sizes", BLOCK_SIZES)
def test_linearize_matches_rescan_under_random_flips_on_block_sums(sizes, ordinal):
    r = block_sum(sizes, ordinal, seed=500)
    for seed in (1, 2):
        _assert_policy_matches_rescan(r, *_random_flips(r, seed))


@pytest.mark.parametrize("ordinal", [False, True])
def test_linearize_matches_rescan_on_the_largest_block_sums(ordinal):
    """The disjoint sum's trace has thousands of pivots, each replayed on read."""
    _assert_matches_rescan(block_sum((12,) * 16, ordinal))


@pytest.mark.parametrize("sizes", [(1,) * 40, (3,) * 16], ids=["antichain", "triples"])
def test_linearize_matches_both_references_on_the_longest_runs(sizes):
    """An antichain's first run has n - 1 free bottoms and pivots them all,
    under "low" and "high" alike: the keep rule's widest case.  The grid and
    trace match the rescan and the closure oracle under "low", "high" and
    an override list, also tight- and subnormal-regraded."""
    o = block_sum(sizes)
    if len(sizes) == o.n:  # the antichain
        for policy, orient in _policies(o)[:2]:
            first = [(s.a.index, s.b.index) for s in linearize(o, policy).trace[: o.n - 1]]
            assert first == [orient(0, j) for j in range(1, o.n)]
    for r in dict.fromkeys((o, tight_regrade(o), subnormal_regrade(o))):
        for policy, orient in _policies(r):
            _assert_policy_matches_rescan(r, policy, orient)
            grid, pivots = closure_linearization(r, policy)
            result = linearize(r, policy)
            assert [(s.a.index, s.b.index) for s in result.trace] == pivots
            assert result.relation.grid.tobytes() == grid.tobytes()


def test_runs_batch_the_pivots_of_a_disjoint_sum():
    """One grid update per cursor run: at most n - 1 of them for hundreds of pivots."""
    r = block_sum((12,) * 8, seed=500)
    g = np.array(r.grid)
    updates = sum(1 for _ in _runs(g, _incomparable(g).nonzero()))
    assert updates <= r.n - 1
    assert linearize(r).k >= 200


def test_linear_grid_matches_rescan_on_order7_orienting_grids(order7):
    for i, j in np.argwhere(_incomparable(order7.grid)):
        for a, b in ((i, j), (j, i)):
            pre = _pivot_grid(order7.grid, a, b)
            assert _linear_grid(pre).tobytes() == rescan_linearization(pre)[0].tobytes()


# ------------------------------------------------ the restricted pivot update


def _assert_raise_block_is_the_pivot(g, pivots):
    # _raise_block(h, a, g[b], g[:, b]) on a copy h of the grid g, for each
    # legal pivot (a, b) listed: g[b, a] = 0, so a != b.  It must leave h
    # equal to _pivot_grid(g, a, b) bit for bit; putting its old rows back
    # must then give g again, so every row that the whole-grid pivot changes
    # is among those it returned.
    h, pivoted = np.array(g), np.empty_like(g)
    for a, b in pivots:
        rows, old, _ = _raise_block(h, a, g[b], g[:, b])
        _pivot_grid(g, a, b, out=pivoted)
        assert np.array_equal(h.view(np.int64), pivoted.view(np.int64)), (a, b)
        h[rows] = old
        assert np.array_equal(h.view(np.int64), g.view(np.int64)), (a, b)


def _legal_pivots(g):
    return np.argwhere(g.T == 0.0).tolist()


def test_raise_block_is_the_pivot_on_goldens_and_corpus():
    orders = [FuzzyRelation(labels, grid) for labels, grid in GOLDENS] + corpus(300, max_n=12)
    for r in orders:
        for g in (r.grid, tight_regrade(r).grid):
            _assert_raise_block_is_the_pivot(g, _legal_pivots(g))


@pytest.mark.parametrize("k", range(len(block_sums())))
def test_raise_block_is_the_pivot_on_block_sums(k):
    # Every 50th legal pivot of the input grid, then each pivot linearize
    # takes, on the grid it meets there.
    for r in (block_sums()[k], tight_regrade(block_sums()[k])):
        g = r.grid
        _assert_raise_block_is_the_pivot(g, _legal_pivots(g)[::50])
        index = {e: i for i, e in enumerate(r.elements)}
        for step in linearize(r).trace:
            a, b = index[step.a], index[step.b]
            _assert_raise_block_is_the_pivot(g, [(a, b)])
            g = _pivot_grid(g, a, b)


# ------------------------------------------------- trace tuples built on read


class _TraceReplayed(Exception):
    pass


def _refuse(*inputs):
    # A module-level function, so that a trace whose slot holds it pickles.
    raise _TraceReplayed


def _refuse_replay(monkeypatch):
    monkeypatch.setattr(extension, "_replay_steps", _refuse)


def test_entries_raised_is_built_once_and_kept():
    result = linearize(block_sum((5, 7), seed=500))
    for step in result.trace:
        first = step.entries_raised
        assert step.entries_raised == first
        assert step.entries_raised is first
    with pytest.raises(AttributeError):
        result.trace[0].a = result.trace[0].b
    with pytest.raises(AttributeError):
        result.trace[0].entries_raised = ()


def test_steps_built_on_read_keep_the_dataclass_protocol():
    r = block_sum((5, 7), seed=500)
    steps = [PivotStep(s.a, s.b, s.step_index, s.entries_raised) for s in linearize(r).trace]
    step, eager = linearize(r).trace[0], steps[0]
    names = ["a", "b", "step_index", "entries_raised"]
    assert dataclasses.is_dataclass(step) and PivotStep.__match_args__ == tuple(names)
    assert [f.name for f in dataclasses.fields(step)] == names
    # Each call below meets steps whose entries nobody has read yet.
    assert [hash(s) for s in linearize(r).trace] == [hash(s) for s in steps]
    assert [repr(s) for s in linearize(r).trace] == [repr(s) for s in steps]
    assert list(linearize(r).trace) == steps
    assert dataclasses.asdict(linearize(r).trace[0]) == dataclasses.asdict(eager)
    assert dataclasses.replace(linearize(r).trace[0], step_index=9) == dataclasses.replace(
        eager, step_index=9
    )
    match linearize(r).trace[0]:
        case PivotStep(a, b, index, entries):
            assert (a, b, index, entries) == (eager.a, eager.b, 1, eager.entries_raised)
    read = linearize(r).trace[:3]
    for s in read:
        s.entries_raised
    for clone in (copy.copy, copy.deepcopy, lambda s: pickle.loads(pickle.dumps(s))):
        assert clone(linearize(r).trace[0]) == eager
        for s, expected in zip(read, steps):  # a read step carries no slot
            copied = clone(s)
            assert not hasattr(copied, "_replay")
            assert copied == expected and repr(copied) == repr(expected)
            assert hash(copied) == hash(expected)
    with pytest.raises(AttributeError):
        step.pivot


def test_pickling_an_unread_trace_runs_no_replay(monkeypatch):
    """A pickled unread trace carries its one slot, unrun, and reads as the eager steps."""
    r = block_sum((5, 7), seed=500)
    eager = [PivotStep(s.a, s.b, s.step_index, s.entries_raised) for s in linearize(r).trace]
    with monkeypatch.context() as patched:
        _refuse_replay(patched)
        copied = pickle.loads(pickle.dumps(linearize(r).trace))
        assert [(s.a, s.b, s.step_index) for s in copied] == [(s.a, s.b, s.step_index) for s in eager]
        with pytest.raises(_TraceReplayed):
            copied[0].entries_raised
    copied = pickle.loads(pickle.dumps(linearize(r).trace))
    assert all(s._replay is copied[0]._replay for s in copied)
    assert list(copied) == eager
    assert not any(hasattr(s, "_replay") for s in copied)


@pytest.mark.parametrize("steps", [(0, 0), (0, -1)], ids=["same-step", "two-steps"])
def test_first_reads_from_two_threads_at_once(steps):
    """Two threads that read unread steps of one trace together both get the entries."""
    reference = [low_rescan(block_sum((12,) * 16))[1][k][2] for k in steps]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for _ in range(3):
            trace = linearize(block_sum((12,) * 16)).trace
            barrier, got = threading.Barrier(2, timeout=60), [None, None]

            def read(t):
                barrier.wait()
                try:
                    got[t] = trace[steps[t]].entries_raised
                except AttributeError as e:
                    got[t] = e

            threads = [threading.Thread(target=read, args=(t,)) for t in (0, 1)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
            assert not any(thread.is_alive() for thread in threads)
            assert got == reference
            if steps[0] == steps[1]:
                assert got[0] is got[1] is trace[steps[0]].entries_raised
    finally:
        sys.setswitchinterval(interval)


def test_first_replay_releases_the_input():
    """Once any step's entries are read, the trace no longer holds the input relation."""
    source = block_sum((12,) * 4)
    r = FuzzyRelation(source.labels, np.array(source.grid))  # not the cached instance
    result, input_ref = linearize(r), weakref.ref(r)
    del r
    gc.collect()
    assert input_ref() is not None  # unread, the trace's slot holds it for the replay
    result.trace[-1].entries_raised
    gc.collect()
    assert input_ref() is None
    assert result.trace[0].entries_raised == low_rescan(source)[1][0][2]


def test_replay_peak_stays_near_the_entries_it_keeps():
    """Reading one step replays every pivot into its own tuple, with no flat copy."""
    result = linearize(block_sum((12,) * 16))  # the n = 192 disjoint sum
    assert result.k == 3964
    tracemalloc.start()
    try:
        result.trace[0].entries_raised
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert sum(len(step.entries_raised) for step in result.trace) == 29635
    assert peak < 1.5 * held, (peak, held)


def test_unread_steps_hold_few_bytes_each():
    """An unread trace holds its steps in slots, its pivots and one replay call."""
    r = block_sum((12,) * 16)  # the n = 192 disjoint sum
    linearize(r)  # builds anything that r keeps
    gc.collect()
    tracemalloc.start()
    try:
        result = linearize(r)
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert result.k == 3964
    assert held / result.k < 280, held / result.k


def test_reading_only_k_m_and_pivots_builds_no_entry_tuple(monkeypatch, order7):
    _refuse_replay(monkeypatch)
    for r in (order7, block_sum((12,) * 8, seed=500), block_sum((5, 7), True, seed=500)):
        for policy in ("low", "high"):
            result = linearize(r, policy)
            pivots = [(s.a.label, s.b.label, s.step_index) for s in result.trace]
            assert len(pivots) == result.k > 0 and result.m > 0
    with pytest.raises(_TraceReplayed):
        result.trace[0].entries_raised


def test_cli_linearize_without_trace_builds_no_entry_tuple(monkeypatch, capsys):
    _refuse_replay(monkeypatch)
    order7 = str(FIXTURES / "order7.csv")
    assert run_command(["linearize", order7]) == 0
    assert run_command(["linearize", order7, "--json", "--policy", "high"]) == 0
    with pytest.raises(_TraceReplayed):
        run_command(["linearize", order7, "--trace"])


def test_operations_after_check_order_run_no_axiom_pass(axiom_calls):
    r = FuzzyRelation(ORDER7_LABELS, ORDER7_GRID)
    assert check_order(r).is_order
    linearize(r)
    pivot_extend(r, "x1", "x2")
    clamp_extend(r, "x1", "x4")
    certifying_family(r)
    assert axiom_calls == []
    fresh = FuzzyRelation(ORDER7_LABELS, ORDER7_GRID)
    assert linearize(fresh) == linearize(r)
    assert axiom_calls == [
        "_reflexivity_witnesses", "_antisymmetry_witnesses", "_transitivity_witnesses"
    ]


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

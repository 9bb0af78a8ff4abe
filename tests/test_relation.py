"""Data model and axiom predicate tests."""

import itertools
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from fuzzorder import (
    CarrierMismatchError,
    EmptyFamilyError,
    FuzzyRelation,
    Pair,
    PreconditionError,
    brute_check_order,
    certifying_family,
    check_order,
    clamp_extend,
    emit_matrix,
    extends,
    incomparable_pairs,
    is_antisymmetric,
    is_linear,
    is_reflexive,
    is_transitive,
    linearize,
    parse_matrix,
    pivot_extend,
    pointwise_inf,
)
from fuzzorder import relation
from fuzzorder.relation import _passes_order

from conftest import identity_relation
from genutil import (
    alpha_cut_is_order,
    block_sum,
    block_sums,
    clamp_problems,
    corpus,
    corrupt,
    family_problems,
    reference_incomparable_pairs,
    reference_pivot,
    reference_support_flags,
    subnormal_regrade,
    tight_regrade,
)


# ---------------------------------------------------------------- model


def test_construction_rejects_empty_carrier():
    with pytest.raises(ValueError, match="nonempty"):
        FuzzyRelation((), [])


def test_construction_rejects_non_square_grid():
    with pytest.raises(ValueError, match="2x2"):
        FuzzyRelation(("a", "b"), [[1, 0, 0], [0, 1, 0]])


def test_construction_rejects_out_of_range_values():
    with pytest.raises(ValueError, match=r"\[0, 1\]"):
        FuzzyRelation(("a",), [[1.5]])
    with pytest.raises(ValueError, match=r"\[0, 1\]"):
        FuzzyRelation(("a", "b"), [[1, -0.1], [0, 1]])


def test_construction_rejects_nan_and_infinity():
    with pytest.raises(ValueError, match="finite"):
        FuzzyRelation(("a",), [[float("nan")]])
    with pytest.raises(ValueError, match="finite"):
        FuzzyRelation(("a",), [[float("inf")]])


def test_grades_must_be_real_numbers(order3):
    """A complex grade is refused, not cut to its real part, and a text grade
    is refused, not read with float(), which takes " 1" and non-ASCII digits,
    also inside an object array; by the constructor and by with_value alike.
    An object array of ints, floats and Fractions is read as grades."""
    boxed = [np.full((1, 1), v, dtype=object) for v in (" \u0661", b"1", 1 + 0j, np.complex64(0.5))]
    complex_grids = ([[1 + 0.5j]], np.array([[1 + 0j]]))
    text_grids = ([["1"]], [[" 1"]], [["\u0661"]], [[b"1"]])
    for grid in (*complex_grids, *text_grids, np.zeros((1, 1), dtype="f8,f8"), *boxed):
        with pytest.raises(ValueError, match="grades must be real numbers"):
            FuzzyRelation(("a",), grid)
    for value in (0.5 + 0.5j, np.complex128(0.5), "0.5", " 1", *boxed):
        with pytest.raises(ValueError, match="grades must be real numbers"):
            order3.with_value("a", "c", value)
    mixed = np.array([[1, Fraction(1, 3)], [0, 1.0]], dtype=object)
    assert FuzzyRelation(("a", "b"), mixed).tolists() == [[1.0, 1 / 3], [0.0, 1.0]]
    assert order3.with_value("a", "c", Fraction(1, 4)).value("a", "c") == 0.25
    source = np.random.default_rng(0).random((192, 192))
    labels = tuple(f"e{i}" for i in range(192))
    for grid in (source, source.tolist()):  # one copy of a numeric array or list
        tracemalloc.start()
        try:
            r = FuzzyRelation(labels, grid)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * source.nbytes, (type(grid), peak, source.nbytes)
        assert r.grid.tobytes() == source.tobytes() and not np.shares_memory(r.grid, source)


def test_construction_rejects_bad_labels():
    with pytest.raises(ValueError, match="distinct"):
        FuzzyRelation(("a", "a"), [[1, 0], [0, 1]])
    with pytest.raises(ValueError, match="nonempty strings"):
        FuzzyRelation(("a", ""), [[1, 0], [0, 1]])


@pytest.mark.parametrize("label", [" a", "a ", "\ta", "a\n", "\u00a0a"])
def test_construction_rejects_labels_with_outer_whitespace(label):
    # CSV strips cells, so such a label would not survive a round trip.
    with pytest.raises(ValueError, match="whitespace"):
        FuzzyRelation((label, "b"), [[1, 0], [0, 1]])
    FuzzyRelation(("a b", "b"), [[1, 0], [0, 1]])  # inner whitespace is kept


def test_construction_rejects_labels_not_encodable_as_utf8():
    with pytest.raises(ValueError, match="UTF-8"):
        FuzzyRelation(("a\ud800", "b"), [[1, 0], [0, 1]])


def test_construction_rejects_labels_with_a_carriage_return():
    # CSV writes a lone carriage return unquoted, and universal newlines turn
    # a quoted one into a line feed, so such a label would not survive a file.
    with pytest.raises(ValueError, match="carriage return"):
        FuzzyRelation(("0\r0",), [[1]])


def test_grid_is_immutable(order3):
    with pytest.raises(ValueError):
        order3.grid[0, 0] = 0.5


def test_construction_copies_input_array():
    source = np.array([[1.0, 0.5], [0.0, 1.0]])
    r = FuzzyRelation(("a", "b"), source)
    source[0, 1] = 0.9
    assert r.value("a", "b") == 0.5


def test_equality_is_bit_exact(order3):
    same = FuzzyRelation(order3.labels, order3.grid)
    assert same == order3
    assert order3.with_value("a", "c", 0.4000000001) != order3
    assert FuzzyRelation(("x", "y", "z"), order3.grid) != order3


def test_comparison_with_a_non_relation_is_left_to_the_other_side(order3):
    assert order3.__eq__(order3.grid) is NotImplemented
    assert order3 != order3.tolists() and order3 != "order3"


def test_repr_names_the_labels_and_size(order3):
    assert repr(order3) == "FuzzyRelation(labels=('a', 'b', 'c'), n=3)"


def test_element_lookup(order7):
    assert order7.index_of("x3") == 2
    assert order7.element(0).label == "x1"
    assert order7.value("x3", "x1") == 0.15
    with pytest.raises(KeyError):
        order7.index_of("nope")
    with pytest.raises(IndexError):
        order7.index_of(7)


def test_relations_on_one_carrier_share_its_elements(order7):
    """The Elements are built once per relation; derived relations have equal ones."""
    elements = order7.elements
    assert elements == tuple(order7.element(i) for i in range(order7.n))
    assert order7.elements is elements
    derived = (pivot_extend(order7, "x1", "x2"), linearize(order7).relation, pointwise_inf([order7]))
    assert all(r.elements == elements for r in derived)
    assert order7.with_value("x1", "x1", 1.0).elements == elements


def test_with_value_checks_its_one_copy_of_the_grid():
    """with_value checks the grades as the constructor does, in the copy it
    writes the new grade into, and allocates no second grid."""
    r = block_sum((12,) * 16)  # the n = 192 disjoint sum
    tracemalloc.start()
    try:
        s = r.with_value(0, 1, 0.5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * r.grid.nbytes, (peak, r.grid.nbytes)
    assert s.value(0, 1) == 0.5 and not np.shares_memory(s.grid, r.grid)
    assert np.array_equal(np.delete(s.grid.ravel(), 1), np.delete(r.grid.ravel(), 1))
    assert not np.signbit(r.with_value(0, 1, -0.0).grid).any()
    for bad in (-0.5, 1.5, np.nan, np.inf):
        with pytest.raises(ValueError, match="grades must"):
            r.with_value(0, 1, bad)


def test_index_references_must_be_integers(order7):
    assert order7.index_of(np.int64(2)) == 2
    assert order7.index_of(True) == 1
    assert order7.value(np.intp(0), 3) == 0.55
    for x in (1.2, 1.0, np.float64(2.0)):
        with pytest.raises(TypeError):
            order7.index_of(x)
    with pytest.raises(TypeError):
        order7.value(0.9, 2.7)  # not truncated to the grade at (0, 2)
    with pytest.raises(TypeError):
        pivot_extend(order7, 1.2, 2.9)  # not truncated to elements 1 and 2


# ---------------------------------------------------------------- axioms


def test_reflexive_on_golden_sample(order3):
    assert is_reflexive(order3)


def test_reflexive_trivial_singleton():
    assert is_reflexive(FuzzyRelation(("a",), [[1]]))


def test_reflexive_fails_with_witness():
    r = FuzzyRelation(("p", "q"), [[0.9, 0], [0, 1]])
    verdict = is_reflexive(r)
    assert not verdict
    assert verdict.witnesses == (("p", 0.9),)


def test_antisymmetric_on_golden_sample(order7):
    assert is_antisymmetric(order7)


def test_antisymmetric_fails_with_witness():
    r = FuzzyRelation(("a", "b"), [[1, 0.3], [0.2, 1]])
    verdict = is_antisymmetric(r)
    assert not verdict
    assert verdict.witnesses == ((("a", "b"), 0.3, 0.2),)


def test_antisymmetric_vacuous_when_offdiagonal_zero():
    assert is_antisymmetric(identity_relation(4))


def test_transitive_on_golden_sample(order4):
    assert is_transitive(order4)


def test_transitive_fails_with_witness():
    r = FuzzyRelation(("a", "b", "c"), [[1, 0.5, 0], [0, 1, 0.5], [0, 0, 1]])
    verdict = is_transitive(r)
    assert not verdict
    assert verdict.witnesses == ((("a", "b", "c"), 0.0, 0.5),)


def test_transitive_identity():
    assert is_transitive(identity_relation(3))


def test_transitivity_witnesses_do_not_depend_on_the_slab_size(monkeypatch):
    """The fractional entries' pass gives the same witnesses one pair per slab
    as in whole slabs, on orders with one fractional entry halved."""
    rng = np.random.default_rng(23)
    relations = []
    for r in corpus(100, max_n=12) + block_sums()[2:4]:
        fractional = np.argwhere((r.grid > 0.0) & (r.grid < 1.0))
        if len(fractional):
            i, j = fractional[rng.integers(len(fractional))]
            relations.append(r.with_value(i, j, r.grid[i, j] / 2))
    whole = [is_transitive(r) for r in relations]
    assert any(v > 0.0 for verdict in whole for _, v, _ in verdict.witnesses)
    monkeypatch.setattr(relation, "_SLAB_BYTES", 1)
    assert [is_transitive(r) for r in relations] == whole


def _random_supports():
    # Around the 8-bit bytes and 64-bit words of the packed rows, at every
    # density; each is drawn whole, then again with rows and columns emptied.
    # The diagonal stays as drawn, so most are not reflexive.
    rng = np.random.default_rng(41)
    for n in (1, 2, 7, 8, 9, 63, 64, 65, 127, 128, 129, 192):
        for density in (0.0, 0.02, 0.1, 0.3, 0.6, 0.9, 1.0):
            s = rng.random((n, n)) < density
            yield s
            holes = s.copy()
            holes[rng.random(n) < 0.25] = False
            holes[:, rng.random(n) < 0.25] = False
            yield holes


def test_support_flags_match_an_unpacked_product_on_random_supports():
    """The packed-bit test flags exactly the rows that the integer product of
    the support flags, and check_order lists every two-step triple of a 0/1
    relation as a witness (where there are few enough to list)."""
    seen = set()
    for s in _random_supports():
        n = len(s)
        expected = reference_support_flags(s)
        assert (relation._support_flags(s) == expected).all(), n
        seen.add((expected.any(), (~s).all(axis=1).any()))
        triples = np.argwhere(s[:, :, None] & s[None, :, :] & ~s[:, None, :])
        if len(triples) > 20_000:
            continue  # listing that many witnesses as tuples adds nothing here
        labels = tuple(f"v{i}" for i in range(n))
        assert check_order(FuzzyRelation(labels, s.astype(float))).transitivity_witnesses == tuple(
            ((labels[x], labels[y], labels[z]), 0.0, 1.0) for x, y, z in triples
        )
    assert seen == {(False, False), (False, True), (True, False), (True, True)}


def test_support_flags_match_an_unpacked_product_on_block_sums_and_their_damages():
    """No row of a block sum is flagged.  Damaged copies (a corrupt entry, an
    entry on a two-step path zeroed, a row's support emptied) are flagged,
    and list their zero-entry witnesses, exactly where the reference says."""
    rng = np.random.default_rng(43)
    flagged = 0
    for r in block_sums():
        s = r.grid > 0.0
        assert not reference_support_flags(s).any()
        damaged = [r] + [corrupt(r, rng) for _ in range(3)]
        paths = s.astype(np.int64) @ s.astype(np.int64)
        x, z = np.argwhere(s & (paths > 2))[rng.integers(np.count_nonzero(s & (paths > 2)))]
        damaged.append(r.with_value(x, z, 0.0))
        g = np.array(r.grid)
        g[rng.integers(r.n)] = 0.0
        damaged.append(FuzzyRelation(r.labels, g))
        for d in damaged:
            support = d.grid > 0.0
            expected = reference_support_flags(support)
            assert (relation._support_flags(support) == expected).all()
            witnesses = check_order(d).transitivity_witnesses
            assert {d.index_of(x) for (x, _, _), value, _ in witnesses if value == 0.0} == set(
                expected.nonzero()[0].tolist()
            )
            flagged += expected.any()
    assert flagged >= len(block_sums())


def test_check_order_all_pass(order7):
    report = check_order(order7)
    assert report.is_order
    assert report.reflexive and report.antisymmetric and report.transitive
    assert report.reflexivity_witnesses == ()
    assert report.antisymmetry_witnesses == ()
    assert report.transitivity_witnesses == ()


def test_check_order_antisymmetry_only_failure():
    report = check_order(FuzzyRelation(("a", "b"), [[1, 0.3], [0.2, 1]]))
    assert report.reflexive and report.transitive and not report.antisymmetric
    assert not report.is_order


def test_check_order_reflexivity_failure():
    report = check_order(FuzzyRelation(("a",), [[0.5]]))
    assert not report.reflexive
    assert not report.is_order


def test_order_implies_unit_diagonal_and_one_direction(order7):
    assert check_order(order7).is_order
    assert (np.diagonal(order7.grid) == 1.0).all()
    g = order7.grid
    for i in range(order7.n):
        for j in range(order7.n):
            if i != j:
                assert not (g[i, j] > 0 and g[j, i] > 0)


def _sweep_pivots_clamps_and_round_trips(r):
    # Every legal pivot_extend of the order r against the pivot formula, bit
    # for bit, every clamp_extend and the certifying family against their
    # references; each pivot and clamp is an order >= r; r and each of them
    # come back from CSV and from JSON bit for bit.  Returns the numbers of
    # pivots, clamps and round trips.
    assert clamp_problems(r) == [] and family_problems(r) == []
    results = [r]
    for a, b in np.argwhere(r.grid.T == 0.0).tolist():
        results.append(pivot_extend(r, a, b))
        assert results[-1].grid.tobytes() == reference_pivot(r.grid, a, b).tobytes()
    pivots = len(results) - 1
    results += [clamp_extend(r, i, j).relation for i, j in np.argwhere(r.grid > 0.0) if i != j]
    for s in results:
        assert brute_check_order(s) and extends(r, s)
        for fmt in ("csv", "json"):
            back = parse_matrix(emit_matrix(s, fmt), fmt)
            assert back.labels == s.labels and back.grid.tobytes() == s.grid.tobytes()
    return np.array([pivots, len(results) - 1 - pivots, 2 * len(results)])


def test_every_three_point_relation_on_three_grades_gets_one_verdict():
    """All 729 relations on three points with a unit diagonal and off-diagonal
    grades in {0, 1/2, 1}: check_order, the verdict-only check, the brute
    oracle and the alpha-cut oracle agree on each, and 79 are orders.  Each
    order, and its tight and subnormal regrades, passes the sweep of every
    legal pivot, every clamp, the family and the round trips in both formats."""
    rows, cols = np.nonzero(~np.eye(3, dtype=bool))
    orders, swept = 0, 0
    for grades in itertools.product((0.0, 0.5, 1.0), repeat=len(rows)):
        grid = np.eye(3)
        grid[rows, cols] = grades
        r = FuzzyRelation(("a", "b", "c"), grid)
        expected = brute_check_order(r)
        assert _passes_order(FuzzyRelation(r.labels, r.grid)) == expected
        assert check_order(r).is_order == expected
        assert alpha_cut_is_order(r) == expected
        orders += expected
        if expected:
            for s in (r, tight_regrade(r), subnormal_regrade(r)):
                swept += _sweep_pivots_clamps_and_round_trips(s)
    assert orders == 79
    assert swept.tolist() == [864, 558, 3318]


# ------------------------------------------------------- recorded verdict


def _non_orders():
    rng = np.random.default_rng(77)
    damaged = [corrupt(r, rng) for r in corpus(200)]
    grades = np.array([0.0, 0.3, 0.7, 1.0])
    noise = [
        FuzzyRelation(tuple(f"v{i}" for i in range(n)), rng.choice(grades, size=(n, n)))
        for n in rng.integers(1, 9, size=100).tolist()
    ]
    return [r for r in damaged + noise if not brute_check_order(r)]


def test_check_order_reports_stay_complete_once_a_verdict_is_recorded():
    """check_order always runs its passes, even after the verdict-only check stopped early."""
    non_orders = _non_orders()
    assert len(non_orders) > 150
    for r in non_orders:
        complete = check_order(FuzzyRelation(r.labels, r.grid))
        assert not _passes_order(r)
        first, second = check_order(r), check_order(r)
        assert first == second == complete
        assert not complete.is_order
        assert len(complete.reflexivity_witnesses) == int((np.diagonal(r.grid) != 1.0).sum())


def test_derived_relations_start_without_a_verdict(axiom_calls, order7):
    assert check_order(order7).is_order
    derived = [
        FuzzyRelation._on_carrier_of(order7.labels, order7.grid),
        order7.with_value("x1", "x1", 1.0),
        parse_matrix(emit_matrix(order7, "csv")),
        parse_matrix(emit_matrix(order7, "json")),
        pivot_extend(order7, "x1", "x2"),
        linearize(order7).relation,
        clamp_extend(order7, "x1", "x4").relation,
        pointwise_inf([order7]),
        *certifying_family(order7).relations(),
    ]
    assert axiom_calls == []
    for r in derived:
        axiom_calls.clear()
        assert _passes_order(r)
        assert len(axiom_calls) == 3
        axiom_calls.clear()
        assert _passes_order(r)
        assert axiom_calls == []


@pytest.mark.parametrize("record", [check_order, _passes_order])
def test_recorded_non_order_fails_every_order_precondition(record):
    bad = FuzzyRelation(("a", "b", "c"), [[1, 0.3, 0], [0.2, 1, 0], [0, 0, 1]])
    record(bad)
    for operation in (
        linearize,
        lambda r: pivot_extend(r, "a", "c"),
        lambda r: clamp_extend(r, "a", "b"),
        certifying_family,
    ):
        with pytest.raises(PreconditionError) as exc:
            operation(bad)
        assert exc.value.reason == "not-an-order"
    assert not check_order(bad).is_order


# ---------------------------------------------------------------- linearity


def test_linearize_rejects_exactly_the_oracle_non_orders():
    """The verdict-only order check behind linearize agrees with the brute oracle."""
    rng = np.random.default_rng(2024)
    rejected = 0
    for r in corpus(400):
        damaged = corrupt(r, rng)
        try:
            linearize(damaged)
            raised = False
        except PreconditionError as exc:
            assert exc.reason == "not-an-order"
            raised = True
        assert raised == (not brute_check_order(damaged)), damaged.tolists()
        rejected += raised
    assert 0 < rejected < 400


def test_linear_on_linearized_sample(order3_linear):
    assert is_linear(order3_linear)


def test_not_linear_with_incomparable_witnesses(order7):
    verdict = is_linear(order7)
    assert not verdict
    labels = [(p.first.label, p.second.label) for p in verdict.witnesses]
    assert ("x1", "x2") in labels


def test_singleton_is_linear():
    assert is_linear(FuzzyRelation(("a",), [[1]]))


def test_incomparable_pairs_order7(order7):
    pairs = [(p.first.label, p.second.label) for p in incomparable_pairs(order7)]
    # frozen from an exhaustive scan of all 21 unordered pairs
    assert pairs == [("x1", "x2"), ("x2", "x3"), ("x4", "x5"), ("x4", "x7")]


def test_incomparable_pairs_order3(order3):
    pairs = [(p.first.label, p.second.label) for p in incomparable_pairs(order3)]
    assert pairs == [("a", "b"), ("b", "c")]


def test_incomparable_pairs_empty_for_linear(order7_linear):
    assert incomparable_pairs(order7_linear) == []


def test_linear_iff_no_incomparable_pairs(order3, order7, order7_linear):
    for r in (order3, order7, order7_linear, identity_relation(1)):
        assert bool(is_linear(r)) == (incomparable_pairs(r) == [])


def test_incomparable_pairs_equal_the_argwhere_list_on_corpus_and_block_sums():
    for r in corpus(1000) + block_sums():
        pairs = incomparable_pairs(r)
        assert pairs == reference_incomparable_pairs(r)
        assert all(type(p) is Pair for p in pairs)
        assert is_linear(r).witnesses == tuple(pairs)


# ---------------------------------------------------------------- extends


def test_linearization_extends_input(order7, order7_linear):
    assert extends(order7, order7_linear)


def test_extends_is_reflexive(order7):
    assert extends(order7, order7)


def test_extends_fails_backwards(order7, order7_linear):
    assert not extends(order7_linear, order7)
    assert order7_linear.value("x1", "x2") == 1 and order7.value("x1", "x2") == 0


def test_extends_carrier_mismatch(order3, order4):
    with pytest.raises(CarrierMismatchError):
        extends(order3, order4)


def test_extends_antisymmetry_of_the_ordering(order7, order7_linear):
    assert not (extends(order7, order7_linear) and extends(order7_linear, order7))


def test_extends_transitivity_of_the_ordering(order3):
    middle = order3.with_value("a", "b", 0.2)
    top = middle.with_value("b", "c", 0.7)
    assert extends(order3, middle) and extends(middle, top)
    assert extends(order3, top)


# ---------------------------------------------------------------- infimum


def test_pointwise_inf_singleton(order7):
    assert pointwise_inf([order7]) == order7


def test_pointwise_inf_entrywise_minimum():
    a = FuzzyRelation(("a", "b"), [[1, 1], [0, 1]])
    b = FuzzyRelation(("a", "b"), [[1, 0], [1, 1]])
    assert pointwise_inf([a, b]) == FuzzyRelation(("a", "b"), [[1, 0], [0, 1]])


def test_pointwise_inf_errors(order3, order4):
    with pytest.raises(EmptyFamilyError):
        pointwise_inf([])
    with pytest.raises(CarrierMismatchError):
        pointwise_inf([order3, order4])


def test_pointwise_inf_is_idempotent_and_permutation_insensitive(order3, order3_linear):
    first = pointwise_inf([order3, order3_linear])
    assert pointwise_inf([order3_linear, order3]) == first
    assert pointwise_inf([first, first]) == first


def test_pointwise_inf_extended_by_every_member(order3, order3_linear):
    inf = pointwise_inf([order3, order3_linear])
    assert extends(inf, order3)
    assert extends(inf, order3_linear)

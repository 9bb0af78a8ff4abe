"""Clamp construction, certifying families, and intersection verification."""

import numpy as np
import pytest

from fuzzorder import (
    CarrierMismatchError,
    EmptyFamilyError,
    FuzzyRelation,
    PreconditionError,
    brute_check_order,
    certifying_family,
    check_order,
    clamp_extend,
    extends,
    incomparable_pairs,
    is_linear,
    linearize,
    pivot_extend,
    pointwise_inf,
    verify_intersection,
)
from fuzzorder import extension as extension_module
from fuzzorder import preserving
from fuzzorder import relation as relation_module

from genutil import (
    block_sum,
    corpus,
    drop_preserving_members,
    reference_family,
    subnormal_regrade,
    tight_regrade,
)

# Frozen from an entrywise evaluation of the clamp formula against the two
# 7-element golden matrices (beta = 0.55, base = the pinned linearization).
CLAMP7_X1X4_GRID = [
    [1, 0.55, 0, 0.55, 0.55, 0.45, 0.75],
    [0, 1, 0, 0.60, 0.55, 0.35, 0.75],
    [0.15, 0.15, 1, 0.30, 0.70, 0.80, 0.90],
    [0, 0, 0, 1, 0.55, 0.30, 0.25],
    [0, 0, 0, 0, 1, 0.30, 0.25],
    [0, 0, 0, 0, 0, 1, 0],
    [0, 0, 0, 0, 0, 0.20, 1],
]


# ---------------------------------------------------------------- clamp


def test_clamp_linear_input_is_identity(order7_linear):
    result = clamp_extend(order7_linear, "x3", "x5")
    assert result.relation == order7_linear
    assert result.base == order7_linear
    assert result.beta == 0.70


def test_clamp_order7_pair_x1_x4(order7, order7_linear):
    result = clamp_extend(order7, "x1", "x4")
    assert result.beta == 0.55
    assert result.base == order7_linear
    assert result.base.value("x1", "x4") == 0.60
    assert result.relation.tolists() == [[float(v) for v in row] for row in CLAMP7_X1X4_GRID]
    # the spot values called out in the formula's derivation
    s = result.relation
    assert s.value("x1", "x4") == 0.55
    assert s.value("x1", "x2") == 0.55
    assert s.value("x1", "x7") == 0.75  # r(x1,x7) = 0.60 > beta keeps the base value
    assert s.value("x3", "x7") == 0.90
    assert s.value("x4", "x5") == 0.55


def test_clamp_order3_pair_a_c(order3):
    result = clamp_extend(order3, "a", "c")
    assert result.beta == 0.4
    assert result.relation.tolists() == [[1, 0.4, 0.4], [0, 1, 0.4], [0, 0, 1]]


def test_clamp_output_is_preserving_linear_order(order7):
    result = clamp_extend(order7, "x1", "x4")
    assert check_order(result.relation).is_order
    assert is_linear(result.relation)
    assert extends(order7, result.relation)
    assert result.relation.value("x1", "x4") == order7.value("x1", "x4")
    assert (result.preserved_pair.first.label, result.preserved_pair.second.label) == ("x1", "x4")


def test_clamp_skips_formula_when_base_already_preserves(order7):
    # the pinned linearization leaves (x3, x5) at 0.70, so no clamping happens
    result = clamp_extend(order7, "x3", "x5")
    assert result.relation == result.base
    assert result.relation.value("x3", "x5") == 0.70


def test_clamp_values_drawn_from_base_and_beta(order7):
    result = clamp_extend(order7, "x1", "x4")
    allowed = set(float(v) for v in result.base.grid.flat) | {result.beta}
    assert set(float(v) for v in result.relation.grid.flat) <= allowed


def test_clamp_monotone_structure(order7):
    result = clamp_extend(order7, "x2", "x5")
    beta = result.beta
    for i in range(order7.n):
        for j in range(order7.n):
            if order7.grid[i, j] > beta:
                assert result.relation.grid[i, j] == result.base.grid[i, j]
            else:
                assert result.relation.grid[i, j] <= beta


def test_clamp_precondition_zero_grade(order7):
    with pytest.raises(PreconditionError) as exc:
        clamp_extend(order7, "x1", "x2")
    assert exc.value.reason == "r(a,b)=0"


def test_clamp_precondition_not_an_order():
    bad = FuzzyRelation(("a", "b"), [[1, 0.3], [0.2, 1]])
    with pytest.raises(PreconditionError) as exc:
        clamp_extend(bad, "a", "b")
    assert exc.value.reason == "not-an-order"


# ---------------------------------------------------------------- family


def test_family_of_linear_order_is_singleton(order7_linear):
    family = certifying_family(order7_linear)
    assert len(family) == 1
    assert family.members[0].relation is order7_linear  # the order itself, not a copy


def test_family_order3_members(order3):
    """Five certificates; two orienting runs coincide, leaving 4 members."""
    family = certifying_family(order3)
    assert family.certificate_count == 5
    assert len(family) == 4
    by_tags = {member.tags: member.relation.tolists() for member in family.members}
    assert by_tags[("orients(a,b)", "orients(b,c)")] == [[1, 1, 1], [0, 1, 1], [0, 0, 1]]
    assert by_tags[("orients(b,a)",)] == [[1, 0, 0.4], [1, 1, 0.4], [0, 0, 1]]
    assert by_tags[("orients(c,b)",)] == [[1, 0.4, 0.4], [0, 1, 0], [0, 1, 1]]
    assert by_tags[("preserves(a,c)",)] == [[1, 0.4, 0.4], [0, 1, 0.4], [0, 0, 1]]


def test_family_order7_counts(order7):
    """8 orienting runs + 17 positive off-diagonal entries = 25 certificates."""
    family = certifying_family(order7)
    assert family.certificate_count == 25
    assert len(family) == 12  # frozen: distinct relations after deduplication
    positives = sum(
        1 for i in range(order7.n) for j in range(order7.n)
        if i != j and order7.grid[i, j] > 0
    )
    assert positives == 17


def test_family_members_are_linear_extensions(order7):
    for member in certifying_family(order7).members:
        assert brute_check_order(member.relation)
        assert is_linear(member.relation)
        assert extends(order7, member.relation)


def test_family_orients_each_incomparable_pair_both_ways(order7):
    family = certifying_family(order7)
    for a, b in (("x1", "x2"), ("x2", "x3"), ("x4", "x5"), ("x4", "x7")):
        ab = [m.relation for m in family.members if f"orients({a},{b})" in m.tags]
        ba = [m.relation for m in family.members if f"orients({b},{a})" in m.tags]
        assert ab and ba
        assert ab[0].value(a, b) == 1.0 and ab[0].value(b, a) == 0.0
        assert ba[0].value(b, a) == 1.0 and ba[0].value(a, b) == 0.0


def test_family_preserves_every_positive_grade(order7):
    family = certifying_family(order7)
    for i in range(order7.n):
        for j in range(order7.n):
            if i != j and order7.grid[i, j] > 0:
                tag = f"preserves({order7.labels[i]},{order7.labels[j]})"
                hits = [m.relation for m in family.members if tag in m.tags]
                assert hits and hits[0].grid[i, j] == order7.grid[i, j]


def test_family_members_match_the_public_constructions(order3, order7):
    """Each tag names the pivot or clamp that, through the public API, builds its member."""
    for r in [order3, order7] + corpus(120, max_n=6):
        for member in certifying_family(r).members:
            for tag in member.tags:
                kind, pair = tag[:-1].split("(")
                a, b = pair.split(",")
                if kind == "orients":
                    expected = linearize(pivot_extend(r, a, b)).relation
                else:
                    expected = clamp_extend(r, a, b).relation
                assert member.relation == expected, (r.tolists(), tag)


def test_family_order7_counts_members_before_merging(order7):
    family = certifying_family(order7)
    assert family.built == 25  # one member per certificate, before merging
    assert len(family.members) == 12
    assert family == reference_family(order7)  # built takes no part in equality


def _assert_matches_reference(r):
    family, reference = certifying_family(r), reference_family(r)
    assert [m.tags for m in family.members] == [m.tags for m in reference.members]
    for got, want in zip(family.members, reference.members):
        assert got.relation.labels == want.relation.labels
        assert got.relation.grid.tobytes() == want.relation.grid.tobytes()
    # one member per certificate before merging; a linear r is its own family
    assert family.built == (1 if is_linear(r) else family.certificate_count)
    assert verify_intersection(r, family)
    if not is_linear(r):  # the first orienting member is r's "low" linearization, the clamp base
        pair = incomparable_pairs(r)[0]
        assert family.members[0].relation == linearize(r).relation
        assert family.members[0].tags[0] == f"orients({pair.first.label},{pair.second.label})"


def test_family_matches_reference_on_goldens(order3, order4, order7, order7_linear):
    for r in (order3, order4, order7, order7_linear):
        _assert_matches_reference(r)


def test_family_matches_reference_on_corpus():
    for r in corpus(300, max_n=12):
        _assert_matches_reference(r)


def test_family_matches_reference_on_tight_goldens(order3, order4, order7, order7_linear):
    """Grades one ulp apart: a comparison loosened by any epsilon breaks the match."""
    for r in (order3, order4, order7, order7_linear):
        _assert_matches_reference(tight_regrade(r))


def test_family_matches_reference_on_tight_corpus():
    for r in corpus(100, max_n=12):
        _assert_matches_reference(tight_regrade(r))


DENSITIES = (0.3, 0.5, 0.7)
BLOCK_SIZES = [(7, 7), (12, 8), (12, 12), (10, 10, 10), (12, 12, 12)]


@pytest.mark.parametrize("ordinal", [False, True])
@pytest.mark.parametrize("sizes", BLOCK_SIZES)
def test_family_matches_reference_on_block_sums(sizes, ordinal):
    _assert_matches_reference(block_sum(sizes, ordinal, densities=DENSITIES))


def _shape(family):
    members = [(m.relation.grid.tobytes(), m.tags) for m in family.members]
    return members, family.built


def test_family_block_sum_spans_several_slabs(monkeypatch):
    """With slabs of 300 one-byte rank grids, the disjoint 36-element sum above
    stacks its orienting members in three slabs or more, and its family is the
    one whole slabs give and the reference's."""
    r = block_sum((12, 12, 12), densities=DENSITIES)
    assert len(np.unique(r.grid)) <= 256  # each grade's rank fits in one byte
    assert 2 * len(incomparable_pairs(r)) > 2 * 300
    whole = _shape(certifying_family(r))
    monkeypatch.setattr(preserving, "_SLAB_BYTES", 300 * r.n * r.n)
    assert _shape(certifying_family(r)) == whole
    _assert_matches_reference(r)


def test_family_does_not_depend_on_the_slab_size(
    monkeypatch, order3, order4, order7, order7_linear
):
    """One member per slab gives the same members, tags, order and ``built``
    as whole slabs."""
    orders = [order3, order4, order7, order7_linear, *corpus(100, max_n=12)]
    whole = [_shape(certifying_family(r)) for r in orders]
    monkeypatch.setattr(preserving, "_SLAB_BYTES", 1)
    assert [_shape(certifying_family(r)) for r in orders] == whole


def _chains(sizes):
    # The disjoint sum of chains of the given sizes, tight-regraded, whose
    # positive off-diagonal grades are all distinct.  In a chain of m
    # elements, element i sits below element j > i with code m(j - i) + i,
    # offset past the codes of the chains before it.  For i < j < k, code
    # (i, k) exceeds codes (i, j) and (j, k), so the chain is transitive.
    n = sum(sizes)
    codes, start, offset = np.zeros((n, n)), 0, 0
    for m in sizes:
        i, j = np.triu_indices(m, k=1)
        codes[start + i, start + j] = m * (j - i) + i + offset + 1
        start, offset = start + m, offset + m * m
    grid = np.eye(n) + codes / (offset + 1)
    return tight_regrade(FuzzyRelation(tuple(f"e{k + 1}" for k in range(n)), grid))


@pytest.mark.parametrize("slab_bytes", [None, 1])
def test_family_matches_reference_on_two_byte_ranks(monkeypatch, slab_bytes):
    """An order with more than 256 distinct grades, whose ranks take two
    bytes, in whole slabs and in slabs of one member."""
    r = _chains((24, 3))
    assert len(np.unique(r.grid)) > 256 and check_order(r).is_order
    if slab_bytes is not None:
        monkeypatch.setattr(preserving, "_SLAB_BYTES", slab_bytes)
    _assert_matches_reference(r)


@pytest.mark.parametrize("ordinal", [False, True])
def test_family_matches_reference_on_subnormal_block_sums(ordinal):
    """Block sums up to n = 24 whose least positive grade is the least subnormal."""
    for sizes in BLOCK_SIZES[:3]:
        _assert_matches_reference(subnormal_regrade(block_sum(sizes, ordinal, densities=DENSITIES)))


def test_family_linearizes_the_order_once(monkeypatch, order3, order4, order7):
    """No separate base linearization: one incomparability mask per family."""
    linear_grid, incomparable = preserving._linear_grid, preserving._incomparable
    calls = {"linear_grid": 0, "incomparable": 0}

    def counted(name, f):
        def g(*args):
            calls[name] += 1
            return f(*args)
        return g

    monkeypatch.setattr(preserving, "_linear_grid", counted("linear_grid", linear_grid))
    monkeypatch.setattr(preserving, "_incomparable", counted("incomparable", incomparable))
    monkeypatch.setattr(extension_module, "_incomparable", counted("incomparable", incomparable))
    orders = [r for r in [order3, order4, order7] + corpus(40, max_n=12) if not is_linear(r)]
    for r in orders:
        certifying_family(r)
    assert calls == {"linear_grid": 0, "incomparable": len(orders)}


def test_family_builds_one_relation_per_member(monkeypatch, order3, order4, order7):
    """Members are merged on their rank grids, so only the kept ones become relations."""
    orders = [r for r in [order3, order4, order7] + corpus(40, max_n=12) if not is_linear(r)]
    on_carrier_of = FuzzyRelation._on_carrier_of.__func__
    calls = []

    def counted(cls, carrier, grid):
        calls.append(carrier)
        return on_carrier_of(cls, carrier, grid)

    monkeypatch.setattr(FuzzyRelation, "_on_carrier_of", classmethod(counted))
    for r in orders:
        calls.clear()
        family = certifying_family(r)
        assert len(calls) == len(family.members)


def _derived_relations(r):
    """Every relation the library derives from the order r, one call at a time."""
    yield linearize(r).relation
    yield linearize(r, "high").relation
    for pair in incomparable_pairs(r):
        yield pivot_extend(r, pair.first, pair.second)
        yield pivot_extend(r, pair.second, pair.first)
    for i, j in zip(*(r.grid > 0.0).nonzero()):
        if i != j:
            result = clamp_extend(r, int(i), int(j))
            yield result.relation
            yield result.base
    family = certifying_family(r)
    if not is_linear(r):  # a linear order is its own family
        yield from family.relations()
    yield pointwise_inf(family.relations())


def test_derived_relations_share_the_validated_carrier(order3, order4, order7, order7_linear):
    for r in [order3, order4, order7, order7_linear] + corpus(300):
        for s in _derived_relations(r):
            rebuilt = FuzzyRelation(r.labels, s.grid)
            assert s == rebuilt and hash(s) == hash(rebuilt)
            assert s.labels is r.labels and s.index_of(r.labels[-1]) == r.n - 1
            assert not s.grid.flags.writeable
            # its own fresh array: no view of r's grid, a slab or another member
            assert s.grid.flags.owndata and not np.shares_memory(s.grid, r.grid)


def test_family_and_verify_skip_the_label_rule(monkeypatch, order7):
    """Members reuse the order's checked labels; only the public constructor checks them."""
    orders = [order7] + corpus(40, max_n=12)
    calls = []
    label_error = relation_module._label_error
    monkeypatch.setattr(
        relation_module, "_label_error", lambda labels: calls.append(labels) or label_error(labels)
    )
    for r in orders:
        family = certifying_family(r)
        assert verify_intersection(r, family)
    assert calls == []
    FuzzyRelation(order7.labels, order7.grid)
    assert calls == [order7.labels]


def test_family_propagates_not_an_order():
    bad = FuzzyRelation(("a", "b"), [[1, 0.3], [0.2, 1]])
    with pytest.raises(PreconditionError):
        certifying_family(bad)


# ---------------------------------------------------------------- verify


def test_inf_of_family_rebuilds_order3(order3):
    family = certifying_family(order3)
    assert pointwise_inf(family.relations()) == order3
    assert verify_intersection(order3, family)


def test_verify_singleton_family_of_linear(order7_linear):
    assert verify_intersection(order7_linear, [order7_linear])


def test_verify_fails_without_enough_members(order7, order7_linear):
    verdict = verify_intersection(order7, [order7_linear])
    assert not verdict
    assert (("x1", "x2"), 1.0, 0.0) in verdict.witnesses


def test_verify_errors(order7, order3):
    with pytest.raises(EmptyFamilyError):
        verify_intersection(order7, [])
    with pytest.raises(CarrierMismatchError):
        verify_intersection(order7, [order3])


# ---------------------------------------------------------------- necessity


def test_dropping_value_preservers_breaks_reconstruction(order7):
    """Every member at exactly 0.55 on (x1,x4) must go for the inf to rise."""
    family = certifying_family(order7)
    target = order7.value("x1", "x4")
    reduced = drop_preserving_members(family, "x1", "x4", target)

    dropped_tags = sorted(
        tag
        for member in family.members
        if member.relation.value("x1", "x4") == target
        for tag in member.tags
    )
    # frozen: the clamp member plus two orienting runs that happen to land on 0.55
    assert dropped_tags == ["orients(x2,x1)", "orients(x2,x3)", "preserves(x1,x4)"]

    for member in reduced.members:
        assert member.relation.value("x1", "x4") > target

    verdict = verify_intersection(order7, reduced)
    assert not verdict
    witness = {pair: inf for pair, inf, _ in verdict.witnesses}
    assert witness[("x1", "x4")] == 0.60
    assert witness[("x1", "x4")] > target

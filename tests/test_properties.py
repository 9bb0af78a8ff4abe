"""Property-based invariants over randomly generated orders.

The strategies draw from the package's own seeded generator, whose soundness
is established separately against the brute-force oracle, so every property
here starts from a known-valid fuzzy order.
"""

import dataclasses

import numpy as np
from hypothesis import assume, given, settings, strategies as st

from fuzzorder import (
    FuzzyRelation,
    GeneratorSpec,
    brute_check_order,
    certifying_family,
    check_order,
    clamp_extend,
    count_incomparable_entries,
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
    random_zadeh_order,
    verify_intersection,
)

from genutil import corrupt, reference_pivot, tight_regrade

DENSITIES = (0.0, 0.2, 0.4, 0.6, 0.8, 1.0)


@st.composite
def orders(draw, min_n=1, max_n=8):
    n = draw(st.integers(min_n, max_n))
    density = draw(st.sampled_from(DENSITIES))
    seed = draw(st.integers(0, 2**32 - 1))
    return random_zadeh_order(GeneratorSpec(n=n, density=density, seed=seed))


@st.composite
def orders_with_legal_pivot(draw):
    r = draw(orders(min_n=2))
    legal = [
        (i, j)
        for i in range(r.n)
        for j in range(r.n)
        if i != j and r.grid[j, i] == 0
    ]
    assume(legal)
    a, b = draw(st.sampled_from(legal))
    return r, a, b


@st.composite
def orders_with_positive_pair(draw):
    r = draw(orders(min_n=2))
    positive = [
        (i, j)
        for i in range(r.n)
        for j in range(r.n)
        if i != j and r.grid[i, j] > 0
    ]
    assume(positive)
    a, b = draw(st.sampled_from(positive))
    return r, a, b


@settings(max_examples=100, deadline=None)
@given(orders_with_legal_pivot())
def test_pivot_preserves_order_axioms(case):
    r, a, b = case
    out = pivot_extend(r, a, b)
    assert brute_check_order(out)
    assert extends(r, out)
    assert out.grid[a, b] == 1.0
    assert out.grid[b, a] == 0.0


@settings(max_examples=100, deadline=None)
@given(orders_with_legal_pivot())
def test_pivot_monotone_and_value_conserving(case):
    r, a, b = case
    out = pivot_extend(r, a, b)
    assert (out.grid >= r.grid).all()
    assert ((r.grid > 0) <= (out.grid > 0)).all()  # positive support never shrinks
    assert set(out.grid.flat) <= set(r.grid.flat)
    assert out.grid.tobytes() == reference_pivot(r.grid, a, b).tobytes()


@settings(max_examples=100, deadline=None)
@given(orders())
def test_linearize_properties(r):
    result = linearize(r)
    assert brute_check_order(result.relation)
    assert is_linear(result.relation)
    assert extends(r, result.relation)
    assert result.k <= result.m / 2 <= r.n * (r.n - 1) / 2
    assert result.m == count_incomparable_entries(r)
    replayed = r
    for step in result.trace:
        replayed = pivot_extend(replayed, step.a, step.b)
    assert replayed == result.relation


@settings(max_examples=100, deadline=None)
@given(orders_with_positive_pair())
def test_clamp_properties(case):
    r, a, b = case
    result = clamp_extend(r, a, b)
    s = result.relation
    assert brute_check_order(s)
    assert is_linear(s)
    assert extends(r, s)
    assert s.grid[a, b] == r.grid[a, b] == result.beta
    allowed = set(result.base.grid.flat) | {result.beta}
    assert set(s.grid.flat) <= allowed


@settings(max_examples=60, deadline=None)
@given(orders(max_n=6))
def test_family_reconstructs_input(r):
    family = certifying_family(r)
    assert verify_intersection(r, family)
    for member in family.members:
        assert is_linear(member.relation)
        assert extends(r, member.relation)


@settings(max_examples=60, deadline=None)
@given(orders(max_n=6))
def test_orienting_members_settle_both_directions(r):
    family = certifying_family(r)
    for pair in incomparable_pairs(r):
        a, b = pair.first, pair.second
        fwd = [m.relation for m in family.members if f"orients({a.label},{b.label})" in m.tags]
        rev = [m.relation for m in family.members if f"orients({b.label},{a.label})" in m.tags]
        assert fwd[0].grid[a.index, b.index] == 1.0 and fwd[0].grid[b.index, a.index] == 0.0
        assert rev[0].grid[b.index, a.index] == 1.0 and rev[0].grid[a.index, b.index] == 0.0


@settings(max_examples=80, deadline=None)
@given(st.lists(orders(max_n=5), min_size=1, max_size=4), st.randoms(use_true_random=False))
def test_pointwise_inf_algebra(family, pyrandom):
    family = [FuzzyRelation(("e1", "e2", "e3", "e4", "e5")[: r.n], r.grid) for r in family]
    n = max(r.n for r in family)
    family = [r for r in family if r.n == n]
    inf = pointwise_inf(family)
    for member in family:
        assert extends(inf, member)
    shuffled = family[:]
    pyrandom.shuffle(shuffled)
    assert pointwise_inf(shuffled) == inf
    assert pointwise_inf([inf] + family) == inf
    if all(check_order(m).is_order for m in family):
        assert check_order(inf).is_order


@settings(max_examples=100, deadline=None)
@given(orders(min_n=2), st.integers(0, 2**32 - 1))
def test_witnesses_recheck_as_violations(r, seed):
    damaged = corrupt(r, np.random.default_rng(seed))
    g = damaged.grid
    for x, v in is_reflexive(damaged).witnesses:
        assert damaged.value(x, x) == v != 1.0
    for (x, y), fwd, back in is_antisymmetric(damaged).witnesses:
        assert damaged.value(x, y) == fwd > 0 and damaged.value(y, x) == back > 0
    for (x, y, z), v, bound in is_transitive(damaged).witnesses:
        assert min(damaged.value(x, y), damaged.value(y, z)) == bound > v == damaged.value(x, z)
    report = check_order(damaged)
    assert report.reflexive == (not report.reflexivity_witnesses)
    assert report.antisymmetric == (not report.antisymmetry_witnesses)
    assert report.transitive == (not report.transitivity_witnesses)
    assert report.is_order == brute_check_order(damaged)


@settings(max_examples=100, deadline=None)
@given(orders(), st.sampled_from(["csv", "json"]))
def test_roundtrip_property(r, fmt):
    assert parse_matrix(emit_matrix(r, fmt), fmt) == r


def _regrading(draw, r):
    # A strictly increasing map of r's grades in (0, 1), fixing 0 and 1.
    grades = np.unique(r.grid[(r.grid > 0.0) & (r.grid < 1.0)])
    inner = st.floats(0.0, 1.0, exclude_min=True, exclude_max=True)
    images = sorted(draw(st.lists(inner, min_size=len(grades), max_size=len(grades), unique=True)))
    values, mapped = np.array([0.0, *grades, 1.0]), np.array([0.0, *images, 1.0])

    def phi(grid):
        at = np.searchsorted(values, grid)
        assert (values[at] == grid).all()  # min and max only: every grade is one of r's
        return mapped[at]

    return phi


@st.composite
def orders_with_regrading(draw):
    """An order r and a strictly increasing map of its grades in (0, 1), fixing 0 and 1."""
    r = draw(orders())
    return r, _regrading(draw, r)


@st.composite
def relations_with_regrading(draw):
    """An order or a damaged one, tight-regraded or not, with a regrading as above."""
    r = draw(orders())
    if draw(st.booleans()):
        r = corrupt(r, np.random.default_rng(draw(st.integers(0, 2**32 - 1))))
    if draw(st.booleans()):
        r = tight_regrade(r)
    return r, _regrading(draw, r)


@settings(max_examples=60, deadline=None)
@given(orders_with_regrading())
def test_linearize_and_family_commute_with_regrading(case):
    """Pivots and clamps use min, max and the zero pattern only, so any strictly
    increasing regrading fixing 0 and 1 carries r's results to those of φ∘r."""
    r, phi = case
    s = FuzzyRelation(r.labels, phi(r.grid))
    base, regraded = linearize(r), linearize(s)
    assert [(p.a, p.b) for p in regraded.trace] == [(p.a, p.b) for p in base.trace]
    assert (regraded.k, regraded.m) == (base.k, base.m)
    assert regraded.relation.grid.tobytes() == phi(base.relation.grid).tobytes()
    family, regraded_family = certifying_family(r), certifying_family(s)
    assert [m.tags for m in regraded_family.members] == [m.tags for m in family.members]
    assert regraded_family.built == family.built
    for got, want in zip(regraded_family.members, family.members):
        assert got.relation.grid.tobytes() == phi(want.relation.grid).tobytes()


@settings(max_examples=60, deadline=None)
@given(orders_with_regrading(), st.data())
def test_pivot_clamp_and_certificate_commute_with_regrading(case, data):
    """pivot_extend and clamp_extend commute with φ, φ carries r's family to a
    certificate of φ∘r, and it carries the witnesses of a broken family."""
    r, phi = case
    s = FuzzyRelation(r.labels, phi(r.grid))

    def grade(v):
        return float(phi(np.float64(v)))

    legal = np.argwhere(r.grid.T == 0.0).tolist()  # r(b, a) = 0, so a != b
    if legal:
        a, b = data.draw(st.sampled_from(legal))
        assert pivot_extend(s, a, b).grid.tobytes() == phi(pivot_extend(r, a, b).grid).tobytes()
    positive = np.argwhere((r.grid > 0.0) & ~np.eye(r.n, dtype=bool)).tolist()
    if positive:
        a, b = data.draw(st.sampled_from(positive))
        got, want = clamp_extend(s, a, b), clamp_extend(r, a, b)
        assert got.relation.grid.tobytes() == phi(want.relation.grid).tobytes()
        assert got.base.grid.tobytes() == phi(want.base.grid).tobytes()
        assert got.beta == grade(want.beta)
    grids = [np.array(m.relation.grid) for m in certifying_family(r).members]
    assert verify_intersection(s, [FuzzyRelation(r.labels, phi(g)) for g in grids])
    # One member set to 0 where it equals a positive grade of r breaks the
    # infimum there; φ∘r sees the same witnesses, with their grades mapped.
    k = data.draw(st.integers(0, len(grids) - 1))
    x, y = data.draw(st.sampled_from(np.argwhere((grids[k] == r.grid) & (r.grid > 0.0)).tolist()))
    grids[k][x, y] = 0.0
    broken = verify_intersection(r, [FuzzyRelation(r.labels, g) for g in grids])
    assert not broken.passed
    regraded = verify_intersection(s, [FuzzyRelation(r.labels, phi(g)) for g in grids])
    assert regraded.witnesses == tuple((pair, grade(v), grade(w)) for pair, v, w in broken.witnesses)


@settings(max_examples=100, deadline=None)
@given(relations_with_regrading())
def test_check_order_commutes_with_regrading(case):
    """The axioms compare grades with 0, 1 and each other only, so the report
    on φ∘r is the report on r with every witness grade mapped through φ."""
    r, phi = case
    report = check_order(r)

    def grade(v):
        return float(phi(np.float64(v)))

    mapped = dataclasses.replace(
        report,
        reflexivity_witnesses=tuple((x, grade(v)) for x, v in report.reflexivity_witnesses),
        antisymmetry_witnesses=tuple(
            (pair, grade(a), grade(b)) for pair, a, b in report.antisymmetry_witnesses
        ),
        transitivity_witnesses=tuple(
            (triple, grade(v), grade(bound)) for triple, v, bound in report.transitivity_witnesses
        ),
    )
    assert check_order(FuzzyRelation(r.labels, phi(r.grid))) == mapped

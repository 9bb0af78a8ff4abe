"""Exactness: grades one ulp apart, one-ulp damages, and the epsilon mutants they kill.

The package compares grades with no tolerance.  A comparison loosened by an
epsilon passes on test data whose distinct grades lie far apart, so the
probes here run on tight-regraded orders (``genutil.tight_regrade``), whose
grades are consecutive doubles, on subnormal-regraded ones
(``genutil.subnormal_regrade``), whose least positive grade is the least
subnormal, and on damages one ulp deep.  Each probe returns the problems it
finds, so the same probe checks the package and flags every mutant in
``EXACTNESS_MUTANTS``.
"""

import functools
import importlib
import inspect

import numpy as np
import pytest

from fuzzorder import (
    FuzzyRelation,
    PreconditionError,
    brute_check_order,
    certifying_family,
    check_order,
    linearize,
)
from fuzzorder import extension, matrixio, preserving, relation

from conftest import GOLDEN_GRIDS
from genutil import (
    alpha_cut_is_order,
    block_sum,
    block_sums,
    clamp_problems,
    corpus,
    corrupt,
    family_problems,
    linearize_problems,
    subnormal_regrade,
    tight_regrade,
)

# One-line mutants that each loosen one exact comparison in src/ by an
# epsilon, by number: (module, exact source text, replacement).  The text
# occurs once in its module, inside one function or method.  A new exact
# comparison joins with the next number and a probe below that flags its
# loosening.  A mutant whose source text is gone leaves, and its number is
# not reused, so every other mutant keeps its test ID.
EXACTNESS_MUTANTS = {
    0: ("relation", "bad = via > row", "bad = via > row + 1e-12"),
    1: ("relation", "pos = r.grid > 0.0", "pos = r.grid > 1e-12"),
    2: ("relation", "np.flatnonzero(diag != 1.0)", "np.flatnonzero(diag < 1.0 - 1e-12)"),
    3: ("relation", "(lo.grid <= hi.grid).all()", "(lo.grid <= hi.grid + 1e-12).all()"),
    4: ("preserving", "np.argwhere(inf.grid != r.grid)", "np.argwhere(~np.isclose(inf.grid, r.grid))"),
    6: ("extension", "xs, ys = (new > old).nonzero()", "xs, ys = (new > old + 1e-12).nonzero()"),
    7: ("matrixio", "bad = ~((grid >= 0.0) & (grid <= 1.0))", "bad = ~((grid >= 0.0) & (grid <= 1.0 + 1e-12))"),
    8: ("relation", "bound > g[x, z]", "bound > g[x, z] + 1e-12"),
    9: ("relation", "support = g > 0.0", "support = g > 1e-12"),
    10: (
        "extension",
        "h[a, bottoms] == col[bottoms]",
        "np.isclose(h[a, bottoms], col[bottoms], rtol=0.0, atol=1e-12)",
    ),
    11: (
        "preserving",
        "np.unique(r.grid, return_inverse=True)",
        "np.unique(np.round(r.grid, 12), return_inverse=True)",
    ),
    12: (
        "extension",
        "rows = (h[:, a] > floor).nonzero()[0]",
        "rows = (h[:, a] > floor + 1e-12).nonzero()[0]",
    ),
    13: ("relation", "(grid < 0.0).any()", "(grid < 0.0 - 1e-12).any()"),
    14: ("relation", "(grid > 1.0).any()", "(grid > 1.0 + 1e-12).any()"),
    15: ("extension", "r.grid[ib, ia] != 0.0", "r.grid[ib, ia] > 1e-12"),
    16: ("preserving", "if base[i, j] == beta:", "if abs(base[i, j] - beta) <= 1e-12:"),
    17: ("relation", "support & (g < 1.0)", "support & (g < 1.0 - 1e-12)"),
    18: (
        "extension",
        "(below[:, bottoms] > 0.0).argmax(axis=0)",
        "(below[:, bottoms] > 1e-12).argmax(axis=0)",
    ),
    19: (
        "relation",
        "(grid == 0.0) & (grid.T == 0.0)",
        "(np.abs(grid) <= 1e-12) & (np.abs(grid.T) <= 1e-12)",
    ),
    20: ("preserving", "positive = r.grid > 0.0", "positive = r.grid > 1e-12"),
    21: ("preserving", "np.where(grid > beta, base,", "np.where(grid > beta + 1e-12, base,"),
    22: ("matrixio", "cells[grid == 0.0] = 0", "cells[np.abs(grid) <= 1e-12] = 0"),
    23: ("preserving", "if beta == 0.0:", "if beta <= 1e-12:"),
    24: ("matrixio", "cells[grid == 1.0] = 1", "cells[np.abs(grid - 1.0) <= 1e-12] = 1"),
}

GOLDENS = [
    FuzzyRelation(*GOLDEN_GRIDS[name]) for name in ("order3", "order4", "order7", "order7_linear")
]


@functools.cache
def tight_orders(regrade=tight_regrade):
    # The goldens, every tenth corpus order, which span all sizes and
    # densities, and an ordinal sum of three blocks, whose grade-1 entries
    # from the first block to the last are attained through the middle one;
    # tight-regraded (or regraded by ``regrade``).
    orders = GOLDENS + corpus(300, max_n=12)[::10] + [block_sum((2, 2, 2), ordinal=True)]
    return [regrade(r) for r in orders]


BELOW_ONE = np.nextafter(1.0, 0.0)
ABOVE_ONE = np.nextafter(1.0, 2.0)
LEAST_SUBNORMAL = 5e-324


def _transitivity_witnesses(r, triples):
    # The witnesses that check_order lists for the violated triples, row-major.
    g, names = r.grid, r.labels
    return tuple(
        ((names[x], names[y], names[z]), float(g[x, z]), float(min(g[x, y], g[y, z])))
        for x, y, z in sorted(triples)
    )


def _axiom_problems(d, expected):
    # Where check_order's verdict on the damaged order d differs
    # from the brute oracle's, or its witnesses from ``expected``.
    report = relation.check_order(d)
    got = (
        report.reflexivity_witnesses, report.antisymmetry_witnesses, report.transitivity_witnesses
    )
    problems = []
    if report.is_order != brute_check_order(d):
        problems.append(f"check_order says is_order={report.is_order}, the oracle disagrees")
    if got != expected:
        problems.append(f"witnesses {got} != {expected}")
    return problems


def damage_problems(r, seed):
    """What the package gets wrong on one-ulp damages of the tight order r."""
    rng = np.random.default_rng(seed)
    g, names, n = r.grid, r.labels, r.n

    def pick(candidates):
        return candidates[int(rng.integers(len(candidates)))] if candidates else None

    problems = []
    # A diagonal entry one ulp below 1 breaks reflexivity alone.
    i = int(rng.integers(n))
    d = r.with_value(i, i, BELOW_ONE)
    problems += _axiom_problems(d, (((names[i], BELOW_ONE),), (), ()))

    # The least subnormal on the reverse of a positive pair (i, j) breaks
    # antisymmetry, and transitivity through (j, i) wherever a 0 now lies
    # below it: (j, i, z) with r(i, z) > 0 = r(j, z), and (x, j, i) with
    # r(x, j) > 0 = r(x, i).
    pair = pick([(i, j) for i, j in np.argwhere(g > 0.0).tolist() if i != j])
    if pair is not None:
        i, j = pair
        d = r.with_value(j, i, LEAST_SUBNORMAL)
        lo, hi = sorted(pair)
        anti = (((names[lo], names[hi]), float(d.grid[lo, hi]), float(d.grid[hi, lo])),)
        triples = [(j, i, z) for z in range(n) if g[i, z] > 0.0 and d.grid[j, z] == 0.0]
        triples += [(x, j, i) for x in range(n) if g[x, j] > 0.0 and d.grid[x, i] == 0.0]
        problems += _axiom_problems(d, ((), anti, _transitivity_witnesses(d, triples)))

    # An entry r(x, z) that some min(r(x, y), r(y, z)) attains, one ulp lower,
    # breaks transitivity at exactly those y; so does such an entry of grade 1.
    def attained(x, z):
        return [y for y in range(n) if y not in (x, z) and min(g[x, y], g[y, z]) == g[x, z] > 0.0]

    entries = [(x, z) for x in range(n) for z in range(n) if x != z and attained(x, z)]
    for entry in (pick(entries), pick([(x, z) for x, z in entries if g[x, z] == 1.0])):
        if entry is not None:
            x, z = entry
            d = r.with_value(x, z, np.nextafter(g[x, z], 0.0))
            triples = [(x, y, z) for y in attained(x, z)]
            problems += _axiom_problems(d, ((), (), _transitivity_witnesses(d, triples)))

    # A family member one ulp below r where it equals r breaks the infimum
    # there, and only there.
    members = [m.relation.grid for m in certifying_family(r).members]
    k = int(rng.integers(len(members)))
    x, y = pick(np.argwhere((members[k] == g) & (g > 0.0)).tolist())
    lowered = np.nextafter(g[x, y], 0.0)
    family = [FuzzyRelation(names, m) for m in members]
    family[k] = family[k].with_value(x, y, lowered)
    verdict = preserving.verify_intersection(r, family)
    want = (((names[x], names[y]), float(lowered), float(g[x, y])),)
    if verdict.passed or verdict.witnesses != want:
        problems.append(f"verify_intersection gave {verdict} on a member lowered at {(x, y)}")

    # A linear extension one ulp below r somewhere does not extend r.
    hi = linearize(r).relation
    if not relation.extends(r, hi):
        problems.append("extends rejected a linearization")
    if relation.extends(r, hi.with_value(x, y, lowered)):
        problems.append(f"extends accepted an extension one ulp below r at {(x, y)}")
    return problems


# The grade one ulp above 1, at (row 2, column 3) of the CSV document and
# at (row 1, column 2) of the JSON one; the least subnormal and the grade one
# ulp below 1, which are grades.
ABOVE_ONE_CSV = ",a,b\na,1,1.0000000000000002\nb,0,1\n"
ABOVE_ONE_JSON = '{"elements": ["a", "b"], "matrix": [[1, 1.0000000000000002], [0, 1]]}'
SUBNORMAL_CSV = ",a,b\na,1,5e-324\nb,0,1\n"
SUBNORMAL_JSON = '{"elements": ["a", "b"], "matrix": [[1, 5e-324], [0, 1]]}'
BELOW_ONE_CSV = ",a,b\na,1,0.9999999999999999\nb,0,1\n"


def parse_problems():
    """What the parser and constructor get wrong on grades one ulp outside
    and inside [0, 1]."""
    problems = []
    for grade in (-LEAST_SUBNORMAL, ABOVE_ONE):
        try:
            relation.FuzzyRelation(("a", "b"), [[1.0, grade], [0.0, 1.0]])
            problems.append(f"the constructor accepted the grade {grade!r}")
        except ValueError:
            pass
    for text, where in ((ABOVE_ONE_CSV, (2, 3)), (ABOVE_ONE_JSON, (1, 2))):
        try:
            matrixio.parse_matrix(text)
            problems.append(f"accepted {text!r}")
        except matrixio.ParseError as e:
            message = f"value 1.0000000000000002 outside [0, 1] (row {where[0]}, column {where[1]})"
            if str(e) != message or (e.row, e.col) != where:
                problems.append(f"{text!r} raised {e!r}")
    for text, grade in (SUBNORMAL_CSV, LEAST_SUBNORMAL), (SUBNORMAL_JSON, LEAST_SUBNORMAL), (BELOW_ONE_CSV, BELOW_ONE):
        r = matrixio.parse_matrix(text)
        for fmt in ("csv", "json"):
            back = matrixio.parse_matrix(matrixio.emit_matrix(r, fmt), fmt)
            if r.grid[0, 1] != grade or back.grid.tobytes() != r.grid.tobytes():
                problems.append(f"{text!r} did not parse and round-trip exactly through {fmt}")
    return problems


def subnormal_problems(r):
    """Where the linearizations of the subnormal-regraded order r differ from
    the rescan, its clamps at the least subnormal from the reference clamp, or
    its certifying family from the reference; and a pivot against the least
    subnormal or a family member that the brute oracle finds no order.

    A pair test that takes two grades within an epsilon for equal finds the
    least subnormal and 0 incomparable, and pivots a pair that is not; a
    pivot or clamp precondition that takes it for 0 refuses or ignores it."""
    problems = [p for policy in extension.POLICIES for p in linearize_problems(r, policy)]
    problems += clamp_problems(r, LEAST_SUBNORMAL) + family_problems(r)
    for b, a in np.argwhere(r.grid == LEAST_SUBNORMAL).tolist():
        try:
            extension.pivot_extend(r, a, b)
            problems.append(f"pivoted {r.labels[a]} above {r.labels[b]} against 5e-324")
        except PreconditionError as e:
            if e.reason != "r(b,a)>0":
                problems.append(f"pivot against 5e-324 raised {e.reason!r}")
    # reference_family calls the package's _linear_grid; the oracle does not.
    if not all(brute_check_order(m.relation) for m in preserving.certifying_family(r)):
        problems.append(f"certifying family of {r.labels} has a member that is not an order")
    return problems


def probe(orders):
    """The problems the probes find on copies of the (tight, subnormal) pairs, lazily."""
    yield from parse_problems()
    for k, pair in enumerate(orders):
        r, s = (FuzzyRelation(q.labels, q.grid) for q in pair)
        for policy in extension.POLICIES:
            yield from linearize_problems(r, policy)
        yield from damage_problems(r, seed=k)
        yield from clamp_problems(r)
        yield from subnormal_problems(s)


def test_one_ulp_damages_meet_the_oracle_and_exact_witnesses():
    for k, r in enumerate(tight_orders()):
        assert damage_problems(r, seed=k) == []


def test_grades_one_ulp_outside_and_inside_the_range():
    assert parse_problems() == []


def test_tight_orders_linearize_as_the_rescan_does():
    """Each probe finds nothing in the package, so what it finds in a mutant
    is the mutation's doing."""
    for r in tight_orders():
        assert [p for policy in extension.POLICIES for p in linearize_problems(r, policy)] == []


def test_tight_orders_clamp_as_the_reference_does():
    assert [p for r in tight_orders() for p in clamp_problems(r)] == []


def test_subnormal_orders_linearize_and_certify_as_the_references_do():
    assert [p for s in tight_orders(subnormal_regrade) for p in subnormal_problems(s)] == []


def test_tight_regrades_meet_the_brute_oracle():
    """Criterion 9's kinds of matrices, tight-regraded: orders, one and two
    damages of them, and random relations, whose grades then sit one ulp apart."""
    rng = np.random.default_rng(99)
    matrices = []
    for r in corpus(250, max_n=8, seed_base=50_000):
        damaged = corrupt(r, rng)
        n = int(rng.integers(1, 9))
        noise = FuzzyRelation(tuple(f"x{i + 1}" for i in range(n)), rng.random((n, n)))
        matrices += [r, damaged, corrupt(damaged, rng), noise]
    verdicts = [brute_check_order(m) for m in map(tight_regrade, matrices)]
    assert [check_order(m).is_order for m in map(tight_regrade, matrices)] == verdicts
    assert any(verdicts) and not all(verdicts)


def _one_ulp_damages(r, rng):
    # r with a zero entry raised to the least subnormal, a fractional entry
    # lowered by one ulp, or a diagonal entry lowered to one ulp below 1.
    g = r.grid
    zeros, fractional = np.argwhere(g == 0.0), np.argwhere((g > 0.0) & (g < 1.0))
    i, j = zeros[rng.integers(len(zeros))]
    yield r.with_value(i, j, LEAST_SUBNORMAL)
    i, j = fractional[rng.integers(len(fractional))]
    yield r.with_value(i, j, np.nextafter(g[i, j], 0.0))
    i = rng.integers(r.n)
    yield r.with_value(i, i, BELOW_ONE)


@pytest.mark.parametrize("k", range(len(block_sums())))
def test_alpha_cut_oracle_agrees_with_check_order(k):
    """The resolution identity (every alpha-cut crisp-transitive) gives the
    order verdict of check_order and of the verdict-only check, on block sums
    up to n = 192, their tight regrades and one-ulp damages of both."""
    rng = np.random.default_rng(k)
    verdicts = []
    for r in (block_sums()[k], tight_regrade(block_sums()[k])):
        for d in [r, *_one_ulp_damages(r, rng)]:
            expected = alpha_cut_is_order(d)
            assert relation._passes_order(FuzzyRelation(d.labels, d.grid)) == expected
            assert check_order(d).is_order == expected
            verdicts.append(expected)
    assert verdicts[0] and not all(verdicts)


def _mutant(monkeypatch, number):
    # Swaps, until the test ends, the code of the one function or method of
    # fuzzorder.<name> that holds the mutant's text for it compiled with the
    # text replaced; each module, tuple or partial that holds it runs that.
    name, text, replacement = EXACTNESS_MUTANTS[number]
    module = importlib.import_module(f"fuzzorder.{name}")
    source = inspect.getsource(module)
    scopes = [module, *(c for _, c in inspect.getmembers(module, inspect.isclass))]
    found = {fn for scope in scopes for _, fn in inspect.getmembers(scope, inspect.isfunction)
             if fn.__code__.co_filename == module.__file__ and text in inspect.getsource(fn)}
    assert len(found) == 1 == source.count(text), f"mutant {number}: text not in one function"
    (fn,) = found
    key = fn.__code__.co_name, fn.__code__.co_firstlineno
    codes = [compile(source.replace(text, replacement), module.__file__, "exec")]
    for code in codes:  # the module's code and every code object nested in it
        codes += filter(inspect.iscode, code.co_consts)
    code = next(c for c in codes if (c.co_name, c.co_firstlineno) == key)
    monkeypatch.setattr(fn, "__code__", code)


@pytest.mark.parametrize(
    "number", EXACTNESS_MUTANTS, ids=[f"{name}-{k}" for k, (name, *_) in EXACTNESS_MUTANTS.items()]
)
def test_probes_flag_every_exactness_mutant(monkeypatch, number):
    orders = zip(tight_orders(), tight_orders(subnormal_regrade))  # cached before the mutant
    _mutant(monkeypatch, number)
    assert next(probe(orders), None) is not None

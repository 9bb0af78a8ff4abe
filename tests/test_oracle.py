"""Brute-force oracle and random generator tests."""

import hashlib

import numpy as np
import pytest

from fuzzorder import (
    FuzzyRelation,
    GeneratorSpec,
    brute_check_order,
    check_order,
    is_linear,
    random_zadeh_order,
)

from conftest import identity_relation
from genutil import corpus, corrupt, inf_reconstruction_probe, labeled_posets


# ---------------------------------------------------------------- brute


def test_brute_accepts_golden_sample(order7):
    assert brute_check_order(order7)


def test_brute_rejects_transitivity_break():
    r = FuzzyRelation(("a", "b", "c"), [[1, 0.5, 0], [0, 1, 0.5], [0, 0, 1]])
    assert not brute_check_order(r)


def test_brute_accepts_identity():
    assert brute_check_order(identity_relation(5))


def test_brute_rejects_reflexivity_and_antisymmetry_breaks():
    assert not brute_check_order(FuzzyRelation(("a",), [[0.5]]))
    assert not brute_check_order(FuzzyRelation(("a", "b"), [[1, 0.3], [0.2, 1]]))


def test_brute_agrees_with_vectorized_check(order3, order4, order7, order7_linear):
    samples = [order3, order4, order7, order7_linear, identity_relation(1)]
    rng = np.random.default_rng(5)
    for r in corpus(40, max_n=6):
        samples.append(r)
        samples.append(corrupt(r, rng))
    for r in samples:
        assert brute_check_order(r) == check_order(r).is_order


# ---------------------------------------------------------------- generator


@pytest.mark.parametrize("n, count", [(1, 1), (2, 3), (3, 19), (4, 219)])
def test_labeled_posets_are_every_partial_order(n, count):
    """The counts of OEIS A001035; each grid is distinct and, as a 0/1
    relation, a Zadeh order by the brute-force oracle."""
    posets = labeled_posets(n)
    assert posets.shape == (count, n, n)
    assert len({p.tobytes() for p in posets}) == count
    labels = tuple(f"p{i + 1}" for i in range(n))
    assert all(brute_check_order(FuzzyRelation(labels, p.astype(float))) for p in posets)


def test_spec_validation():
    with pytest.raises(ValueError):
        GeneratorSpec(n=0, density=0.5)
    with pytest.raises(ValueError):
        GeneratorSpec(n=13, density=0.5)
    with pytest.raises(ValueError):
        GeneratorSpec(n=4, density=1.5)
    with pytest.raises(ValueError):
        GeneratorSpec(n=4, density=-0.1)
    with pytest.raises(ValueError):
        GeneratorSpec(n=4, density=0.5, value_pool=())
    with pytest.raises(ValueError):
        GeneratorSpec(n=4, density=0.5, value_pool=(0.0, 0.5))
    with pytest.raises(ValueError):
        GeneratorSpec(n=4, density=0.5, seed=-1)


def test_single_element_draw():
    r = random_zadeh_order(GeneratorSpec(n=1, density=0.9, seed=3))
    assert r.tolists() == [[1.0]]


def test_zero_density_gives_identity():
    r = random_zadeh_order(GeneratorSpec(n=5, density=0.0, seed=8))
    assert r == identity_relation(5, r.labels)


def test_full_density_gives_chain():
    r = random_zadeh_order(GeneratorSpec(n=5, density=1.0, seed=8))
    assert is_linear(r)
    assert brute_check_order(r)
    off = [(i, j) for i in range(5) for j in range(5) if i != j]
    assert all((r.grid[i, j] > 0) != (r.grid[j, i] > 0) for i, j in off)


def test_identical_specs_identical_relations():
    a = random_zadeh_order(GeneratorSpec(n=7, density=0.4, seed=321))
    b = random_zadeh_order(GeneratorSpec(n=7, density=0.4, seed=321))
    assert a == b


def test_different_seeds_differ():
    a = random_zadeh_order(GeneratorSpec(n=7, density=0.5, seed=0))
    b = random_zadeh_order(GeneratorSpec(n=7, density=0.5, seed=1))
    assert a != b


@pytest.mark.parametrize("density", [0.0, 0.3, 0.7, 1.0])
@pytest.mark.parametrize("n", range(1, 9))
def test_generator_soundness_sweep(n, density):
    # 32 seeds x 8 sizes x 4 densities = 1024 draws, all brute-checked
    for seed in range(32):
        assert brute_check_order(random_zadeh_order(GeneratorSpec(n=n, density=density, seed=seed)))


GENERATOR_DIGEST = "0c7c4568d113bcb594325ae6a4a6b3cc1041388ca22bbf5ee181bc46d5fe0337"


def test_generator_output_is_pinned():
    """1,760 draws hash to the same bytes: every size and density, then four pools."""
    densities = (0, 0.1, 0.3, 0.5, 0.7, 0.9, 1)
    pools = [(0.5,), (1.0,), (0.25, 0.75), (1e-300, 0.3, 1.0)]
    specs = [
        GeneratorSpec(n=n, density=d, seed=s)
        for n in range(1, 13) for d in densities for s in range(20)
    ] + [GeneratorSpec(n=12, density=0.6, value_pool=p, seed=s) for p in pools for s in range(20)]
    digest = hashlib.sha256()
    for spec in specs:
        digest.update(random_zadeh_order(spec).grid.tobytes())
    assert len(specs) == 1760
    assert digest.hexdigest() == GENERATOR_DIGEST


def test_every_antisymmetry_corruption_is_detected():
    """Raising r(x,y) from 0 where r(y,x) > 0 must always break the axioms."""
    for r in corpus(30, max_n=6, seed_base=400):
        g = r.grid
        spots = [
            (i, j)
            for i in range(r.n)
            for j in range(r.n)
            if i != j and g[i, j] == 0 and g[j, i] > 0
        ]
        for i, j in spots:
            damaged = r.with_value(i, j, 0.5)
            assert not brute_check_order(damaged)
            assert not check_order(damaged).is_order


# ---------------------------------------------------------------- probe


def test_probe_on_golden_samples(order3, order4, order7):
    assert inf_reconstruction_probe(order3)
    assert inf_reconstruction_probe(order4)
    assert inf_reconstruction_probe(order7)


def test_probe_on_linear_relation(order7_linear):
    assert inf_reconstruction_probe(order7_linear)


def test_probe_on_random_order():
    r = random_zadeh_order(GeneratorSpec(n=6, density=0.4, seed=7))
    assert inf_reconstruction_probe(r)

import random

import pytest

from monideal import (
    SquareFreeIdeal,
    big_height,
    krull_dimension,
    minimal_primes,
)
from monideal.bitsets import bits
from conftest import brute_minimal_covers, masks, random_ideal


def test_cover_examples():
    p4 = SquareFreeIdeal(4, masks({0, 1}, {1, 2}, {2, 3}))
    assert set(minimal_primes(p4).primes) == set(
        masks({1, 2}, {1, 3}, {0, 2})
    )
    c4 = SquareFreeIdeal(4, masks({0, 1}, {1, 2}, {2, 3}, {0, 3}))
    assert set(minimal_primes(c4).primes) == set(masks({0, 2}, {1, 3}))
    assert minimal_primes(SquareFreeIdeal(1, [1])).primes == (1,)


def test_minimal_primes_examples():
    p4 = SquareFreeIdeal(4, masks({0, 1}, {1, 2}, {2, 3}))
    decomposition = minimal_primes(p4)
    assert set(decomposition.primes) == set(masks({1, 2}, {1, 3}, {0, 2}))
    assert decomposition.d_min == decomposition.d_max == 2

    maximal = SquareFreeIdeal(4, [1, 2, 4, 8])
    decomposition = minimal_primes(maximal)
    assert decomposition.primes == (0b1111,)
    assert decomposition.d_min == decomposition.d_max == 4

    mixed = SquareFreeIdeal(3, masks({0, 1}, {0, 2}))
    decomposition = minimal_primes(mixed)
    assert set(decomposition.primes) == set(masks({0}, {1, 2}))
    assert decomposition.d_min == 1 and decomposition.d_max == 2


def test_big_height_examples():
    c5 = SquareFreeIdeal(
        5, masks({0, 1}, {1, 2}, {2, 3}, {3, 4}, {0, 4})
    )
    assert big_height(c5) == 3
    assert big_height(SquareFreeIdeal(3, masks({0, 1}, {0, 2}))) == 2
    assert big_height(SquareFreeIdeal(1, [1])) == 1


def test_krull_dimension_examples():
    c4 = SquareFreeIdeal(4, masks({0, 1}, {1, 2}, {2, 3}, {0, 3}))
    assert krull_dimension(c4) == 2
    assert krull_dimension(SquareFreeIdeal(4, [1, 2, 4, 8])) == 0
    assert krull_dimension(SquareFreeIdeal(3, masks({0, 1}, {0, 2}))) == 2


@pytest.mark.parametrize("seed", range(25))
def test_covers_against_bruteforce(seed):
    rng = random.Random(seed)
    n = rng.randint(2, 10)
    ideal = random_ideal(rng, n)
    assert list(minimal_primes(ideal).primes) == brute_minimal_covers(
        ideal.gens, n
    )


@pytest.mark.parametrize("seed", range(25))
def test_prime_facet_duality(seed):
    """Facets of the Stanley-Reisner complex complement the minimal primes."""
    rng = random.Random(1000 + seed)
    n = rng.randint(2, 9)
    ideal = random_ideal(rng, n)
    full = (1 << n) - 1
    primes = minimal_primes(ideal)
    delta = ideal.stanley_reisner_complex()
    assert set(delta.facets) == {full ^ p for p in primes.primes}
    # facet dimensions are n - d - 1 for each prime height d
    assert sorted(f.bit_count() - 1 for f in delta.facets) == sorted(
        n - d - 1 for d in primes.heights
    )
    assert delta.dim == n - primes.d_min - 1


@pytest.mark.parametrize("seed", range(25))
def test_every_cover_is_checked(seed):
    rng = random.Random(2000 + seed)
    n = rng.randint(2, 9)
    ideal = random_ideal(rng, n)
    for cover in minimal_primes(ideal).primes:
        assert all(cover & g for g in ideal.gens)
        for v in bits(cover):
            rest = cover ^ (1 << v)
            assert any(not rest & g for g in ideal.gens)

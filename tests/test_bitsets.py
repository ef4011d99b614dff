import random

import pytest

from monideal import families
from monideal.bitsets import (
    antichain_maximal,
    antichain_minimal,
    as_mask,
    bits,
    members,
    minimal_transversals,
    sort_key,
    submasks,
)
from monideal.families import FamilySpec
from conftest import brute_minimal_covers, random_complex


def test_as_mask_roundtrip():
    assert as_mask([0, 2, 5]) == 0b100101
    assert as_mask(0b100101) == 0b100101
    assert members(0b100101) == (0, 2, 5)
    assert as_mask([]) == 0


def test_as_mask_rejects_negative():
    with pytest.raises(ValueError):
        as_mask([-1])
    with pytest.raises(ValueError):
        as_mask(-3)


def test_bits_order():
    assert list(bits(0b1011)) == [0, 1, 3]
    assert list(bits(0)) == []


def test_submasks_complete():
    m = 0b1101
    subs = list(submasks(m))
    assert len(subs) == 8
    assert set(subs) == {s for s in range(16) if s & ~m == 0}


def test_antichains():
    assert antichain_maximal([0b011, 0b001, 0b110]) == (0b011, 0b110)
    assert antichain_minimal([0b011, 0b001, 0b110]) == (0b001, 0b110)
    assert antichain_maximal([]) == ()
    assert antichain_maximal([0]) == (0,)
    # duplicates collapse
    assert antichain_maximal([0b01, 0b01]) == (0b01,)


def test_minimal_transversals_small():
    # path with edges {0,1},{1,2},{2,3}: covers {1,2},{1,3},{0,2}
    edges = [0b0011, 0b0110, 0b1100]
    assert minimal_transversals(edges, 4) == (0b0101, 0b0110, 0b1010)


def test_minimal_transversals_degenerate():
    assert minimal_transversals([], 4) == (0,)
    assert minimal_transversals([0], 4) == ()


@pytest.mark.parametrize("seed", range(20))
def test_minimal_transversals_match_bruteforce(seed):
    rng = random.Random(seed)
    n = rng.randint(2, 10)
    count = rng.randint(1, 6)
    edges = []
    for _ in range(count):
        size = rng.randint(1, n)
        edges.append(sum(1 << v for v in rng.sample(range(n), size)))
    fast = minimal_transversals(edges, n)
    assert list(fast) == brute_minimal_covers(edges, n)
    # every returned cover meets all edges and is minimal vertex by vertex
    for cover in fast:
        assert all(cover & e for e in edges)
        for v in bits(cover):
            rest = cover ^ (1 << v)
            assert any(not rest & e for e in edges)


def _random_edges(rng, n, count, sizes):
    return [
        sum(1 << v for v in rng.sample(range(n), rng.choice(sizes)))
        for _ in range(count)
    ]


@pytest.mark.parametrize("seed", range(25))
def test_minimal_transversals_of_graphs(seed):
    rng = random.Random(1500 + seed)
    n = rng.randint(2, 10)
    edges = _random_edges(rng, n, rng.randint(1, 3 * n), (2,))
    assert list(minimal_transversals(edges, n)) == brute_minimal_covers(edges, n)


@pytest.mark.parametrize("seed", range(25))
def test_minimal_transversals_of_small_edge_hypergraphs(seed):
    rng = random.Random(1600 + seed)
    n = rng.randint(3, 10)
    edges = _random_edges(rng, n, rng.randint(1, 3 * n), (2, 3))
    assert list(minimal_transversals(edges, n)) == brute_minimal_covers(edges, n)


@pytest.mark.parametrize("kind", ["tree", "chordal", "path_ideal", "simplicial_tree"])
@pytest.mark.parametrize("n", [6, 9, 12])
def test_minimal_transversals_of_family_ideals(kind, n):
    for ideal in families.generate(FamilySpec(kind, n, seed=n, count=3)):
        assert list(minimal_transversals(ideal.gens, n)) == brute_minimal_covers(
            ideal.gens, n
        )


@pytest.mark.parametrize("seed", range(20))
def test_minimal_transversals_of_facet_complements(seed):
    """The Stanley-Reisner ideal's generators are the minimal transversals of
    the facet complements: large edges, many small covers."""
    rng = random.Random(1700 + seed)
    n = rng.randint(2, 8)
    delta = random_complex(rng, n)
    full = (1 << n) - 1
    complements = [full ^ f for f in delta.facets]
    expected = brute_minimal_covers(complements, n)
    assert list(minimal_transversals(complements, n)) == expected
    assert list(delta.stanley_reisner_ideal().gens) == expected


@pytest.mark.parametrize("seed", range(10))
def test_minimal_transversals_ignore_duplicate_edges(seed):
    rng = random.Random(1800 + seed)
    n = rng.randint(2, 10)
    edges = _random_edges(rng, n, rng.randint(1, 2 * n), (2, 3))
    doubled = edges + rng.choices(edges, k=len(edges))
    rng.shuffle(doubled)
    assert minimal_transversals(doubled, n) == minimal_transversals(edges, n)


@pytest.mark.parametrize("width", [1, 2, 3, 7, 16, 63, 64, 65, 100, 130])
def test_sort_key_matches_members_order(width):
    """Same order as (size, members), on random masks and on masks of one
    shared size, where only the members decide."""
    rng = random.Random(width)
    pool = [rng.getrandbits(width) for _ in range(60)]
    size = rng.randint(0, width)
    pool += [sum(1 << v for v in rng.sample(range(width), size)) for _ in range(60)]
    expected = sorted(pool, key=lambda m: (m.bit_count(), members(m)))
    assert sorted(pool, key=sort_key) == expected

import random
from functools import reduce
from itertools import combinations
from operator import and_, or_

import pytest

from monideal import (
    PrimeField,
    SquareFreeIdeal,
    TooLargeError,
    cycle_graph,
    depth,
    edge_ideal,
    hochster_betti_table,
    path_graph,
    pd_oracle,
    reduced_betti_numbers,
)
from monideal import bitsets, homology
from conftest import (
    count_calls,
    masks,
    random_ideal,
    reference_betti_table,
    rp2_complex,
)


def on_lcm_lattice(ideal, sigma):
    """sigma is the union of the generators it contains."""
    return reduce(or_, (g for g in ideal.gens if g & ~sigma == 0), 0) == sigma


def seeded_ideal(seed):
    rng = random.Random(700 + seed)
    return random_ideal(rng, rng.randint(4, 8))


REFERENCE_CASES = {
    **{f"random{seed}": seeded_ideal(seed) for seed in range(12)},
    "rp2": rp2_complex().stanley_reisner_ideal(),
    "degree_one_generator": SquareFreeIdeal(5, masks({0}, {1, 2}, {2, 3, 4}, {1, 4})),
    "unused_variables": SquareFreeIdeal(7, masks({0, 2}, {2, 4}, {0, 4})),
    "single_generator": SquareFreeIdeal(4, masks({0, 1, 3})),
}


def test_single_edge_table(gf2):
    table = hochster_betti_table(SquareFreeIdeal(2, [0b11]), gf2)
    assert table.beta(0, 0) == 1
    assert table.beta(1, 0b11) == 1
    assert table.pd == 1
    assert table.entries == {(0, 0): 1, (1, 0b11): 1}


def test_koszul_pattern(gf2):
    ideal = SquareFreeIdeal(3, [1, 2, 4])
    table = hochster_betti_table(ideal, gf2)
    assert table.pd == 3
    for size in range(1, 4):
        for combo in combinations(range(3), size):
            sigma = sum(1 << v for v in combo)
            assert table.beta(size, sigma) == 1
    assert table.beta(3, 0b111) == 1
    assert table.total(1) == 3
    assert table.total(2) == 3
    assert table.total(3) == 1


def test_c4_table(gf2):
    table = hochster_betti_table(edge_ideal(cycle_graph(4)), gf2)
    assert table.pd == 3
    assert table.beta(3, 0b1111) == 1


def test_pd_depth_oracle_examples(gf2):
    assert pd_oracle(edge_ideal(path_graph(4)), gf2) == 2
    assert pd_oracle(SquareFreeIdeal(1, [1]), gf2) == 1
    assert pd_oracle(edge_ideal(cycle_graph(5)), gf2) == 3
    c4, simplex = edge_ideal(cycle_graph(4)), SquareFreeIdeal(3, [0b111])
    assert c4.n - pd_oracle(c4, gf2) == 1
    assert simplex.n - pd_oracle(simplex, gf2) == 2


def test_cap_enforced(gf2):
    ideal = SquareFreeIdeal(6, masks({0, 1}, {2, 3}, {4, 5}))
    with pytest.raises(TooLargeError):
        hochster_betti_table(ideal, gf2, cap=5)
    assert pd_oracle(ideal, gf2, cap=6) == 3


@pytest.mark.parametrize("seed", range(20))
@pytest.mark.parametrize("p", [2, 3])
def test_oracle_agrees_with_skeleton_depth(seed, p):
    """The central cross-validation: two independent pd pipelines agree."""
    rng = random.Random(seed)
    n = rng.randint(2, 8)
    ideal = random_ideal(rng, n)
    field = PrimeField(p)
    assert pd_oracle(ideal, field) == n - depth(ideal, field)


@pytest.mark.parametrize("seed", range(10))
def test_alternating_sum_matches_euler(seed, gf2):
    """For each multidegree, the signed Betti column sum equals the reduced
    Euler characteristic of the restriction (direct consequence of how ranks
    cancel), computed here from face counts only."""
    rng = random.Random(9000 + seed)
    n = rng.randint(2, 7)
    ideal = random_ideal(rng, n)
    delta = ideal.stanley_reisner_complex()
    table = hochster_betti_table(ideal, gf2)
    for sigma in range(1, 1 << n):
        if delta.has_face(sigma):
            continue
        restricted = delta.restrict(sigma)
        f = restricted.f_vector()
        euler = sum((-1) ** d * c for d, c in enumerate(f, start=-1))
        size = sigma.bit_count()
        signed = sum(
            (-1) ** ((size - i) % 2) * table.beta(i, sigma)
            for i in range(0, size + 1)
        )
        # beta_{i,sigma} = betti_{size-i-1}, so sum_i (-1)^i beta = ±euler
        betti = reduced_betti_numbers(restricted, gf2)
        assert sum((-1) ** d * b for d, b in betti.items()) == euler
        assert signed in (euler, -euler)


@pytest.mark.parametrize("seed", range(10))
def test_entries_only_above_degree(seed, gf2):
    rng = random.Random(300 + seed)
    ideal = random_ideal(rng, rng.randint(2, 7))
    table = hochster_betti_table(ideal, gf2)
    for (i, sigma), value in table.entries.items():
        assert value > 0
        assert sigma.bit_count() >= i


@pytest.mark.parametrize("case", sorted(REFERENCE_CASES))
@pytest.mark.parametrize("p", [2, 3, 5])
def test_table_matches_exhaustive_reference(case, p):
    """Skipping every sigma off the lcm lattice loses no entry."""
    ideal = REFERENCE_CASES[case]
    field = PrimeField(p)
    assert hochster_betti_table(ideal, field).entries == reference_betti_table(
        ideal, field
    )


@pytest.mark.parametrize("seed", range(10))
def test_restrictions_off_lattice_are_exactly_the_cones(seed, gf2, gf3):
    """Off the lcm lattice the restriction is a cone with no reduced
    homology; on it no vertex lies in every facet of the restriction."""
    rng = random.Random(1100 + seed)
    ideal = random_ideal(rng, rng.randint(2, 8))
    delta = ideal.stanley_reisner_complex()
    for sigma in range(1, 1 << ideal.n):
        restricted = delta.restrict(sigma)
        apexes = reduce(and_, restricted.facets) & sigma
        if on_lcm_lattice(ideal, sigma):
            assert apexes == 0
        else:
            assert apexes
            for field in (gf2, gf3):
                betti = reduced_betti_numbers(restricted, field)
                assert not any(betti.values())


def test_oracle_takes_homology_once_per_lattice_degree(monkeypatch, gf3):
    """The oracle takes reduced homology once for each nonempty sigma on the
    lcm lattice and nowhere else."""
    ideal = edge_ideal(cycle_graph(6))
    lattice = [s for s in range(1, 1 << 6) if on_lcm_lattice(ideal, s)]
    calls = count_calls(monkeypatch, homology, "_betti_of_faces")
    hochster_betti_table(ideal, gf3)
    assert len(calls) == len(lattice) > 0


def test_oracle_enumerates_no_covers(monkeypatch, gf2):
    """The oracle lists the Stanley-Reisner faces in its own sweep, so it
    shares no cover enumeration with the routes it checks."""
    calls = count_calls(monkeypatch, bitsets, "minimal_transversals")
    table = hochster_betti_table(edge_ideal(cycle_graph(5)), gf2)
    assert table.pd == 3 and calls == []

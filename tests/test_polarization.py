import random

import pytest

from monideal import (
    MonomialIdeal,
    PrimeField,
    SquareFreeIdeal,
    ZeroOrUnitIdealError,
    big_height,
    big_height_general,
    pd_general,
    pd_oracle,
    polarize,
    projective_dimension,
)
from monideal import polarization
from monideal.families import random_monomial_ideal
from conftest import count_calls, random_ideal


def test_monomial_ideal_minimalizes():
    ideal = MonomialIdeal(2, [(2, 0), (2, 1)])
    assert ideal.gens == ((2, 0),)


@pytest.mark.parametrize("seed", range(20))
def test_monomial_ideal_minimalizes_like_componentwise_division(seed):
    """Generators are exactly the vectors no other generator divides,
    ordered by (degree, exponents)."""
    rng = random.Random(2100 + seed)
    n = rng.randint(1, 5)
    vectors = [
        tuple(rng.choice((0, 0, 1, 2, 3)) for _ in range(n))
        for _ in range(rng.randint(1, 12))
    ]
    vectors = [v for v in vectors if any(v)] or [(1,) * n]
    unique = set(vectors)
    expected = sorted(
        (
            v
            for v in unique
            if not any(
                u != v and all(a >= b for a, b in zip(v, u)) for u in unique
            )
        ),
        key=lambda v: (sum(v), v),
    )
    assert MonomialIdeal(n, vectors).gens == tuple(expected)


def test_monomial_ideal_rejects_degenerate():
    with pytest.raises(ZeroOrUnitIdealError):
        MonomialIdeal(2, [])
    with pytest.raises(ZeroOrUnitIdealError):
        MonomialIdeal(2, [(0, 0)])
    with pytest.raises(ValueError):
        MonomialIdeal(2, [(1,)])
    with pytest.raises(ValueError):
        MonomialIdeal(2, [(-1, 2)])


def test_polarize_single_power():
    pm = polarize(MonomialIdeal(1, [(2,)], labels=("x",)))
    assert pm.target.labels == ("x.1", "x.2")
    assert pm.target.gens == (0b11,)
    assert pm.copies == (2,)


def test_polarize_mixed():
    pm = polarize(MonomialIdeal(2, [(2, 0), (1, 1)], labels=("x", "y")))
    assert pm.target.labels == ("x.1", "x.2", "y.1")
    assert set(pm.target.generator_monomials()) == {"x.1*x.2", "x.1*y.1"}


def test_polarize_squarefree_fixed_point():
    source = MonomialIdeal(2, [(1, 1)])
    pm = polarize(source)
    assert pm.target.labels == ("x1.1", "x2.1")
    assert pm.target.gens == (0b11,)


def test_polarize_keeps_unused_variables():
    pm = polarize(MonomialIdeal(2, [(2, 0)], labels=("x", "y")))
    assert pm.target.labels == ("x.1", "x.2", "y.1")
    assert pm.target.n == 3


def test_degree_preservation():
    rng = random.Random(1)
    for _ in range(25):
        ideal = random_monomial_ideal(rng.randint(1, 4), rng, max_exp=3)
        pm = polarize(ideal)
        source_degrees = sorted(sum(vec) for vec in ideal.gens)
        target_degrees = sorted(g.bit_count() for g in pm.target.gens)
        assert source_degrees == target_degrees
        assert len(pm.target.gens) == len(ideal.gens)


def test_big_height_general_examples():
    assert big_height_general(MonomialIdeal(2, [(2, 0), (1, 1)])) == 2
    assert big_height_general(MonomialIdeal(2, [(1, 1)])) == 1
    assert big_height_general(MonomialIdeal(1, [(3,)])) == 1


def test_pd_general_examples(gf2):
    assert pd_general(MonomialIdeal(2, [(2, 0), (1, 1)]), gf2) == 2
    assert pd_general(MonomialIdeal(1, [(2,)]), gf2) == 1
    assert pd_general(MonomialIdeal(3, [(1, 0, 0), (0, 1, 0), (0, 0, 1)]), gf2) == 3


def test_square_free_input_is_not_polarized(monkeypatch, gf2):
    """A square-free MonomialIdeal reaches the engines as it is, as in the
    CLI; polarizing it would only relabel it."""
    rng = random.Random(5)
    ideals = [
        MonomialIdeal.from_squarefree(random_ideal(rng, rng.randint(2, 7)))
        for _ in range(10)
    ]
    expected = [(pd_general(i, gf2), big_height_general(i)) for i in ideals]
    assert expected == [
        (projective_dimension(polarize(i).target, gf2), big_height(polarize(i).target))
        for i in ideals
    ]
    calls = count_calls(monkeypatch, polarization, "polarize")
    assert [(pd_general(i, gf2), big_height_general(i)) for i in ideals] == expected
    assert calls == []


def test_squarefree_round_trip():
    sq = SquareFreeIdeal(3, [0b011, 0b110])
    mono = MonomialIdeal.from_squarefree(sq)
    assert mono.is_squarefree


def test_support_radical():
    ideal = MonomialIdeal(2, [(2, 0), (1, 1)])
    assert ideal.support_radical().gens == (0b01,)
    # a square-free input comes back unchanged, labels included
    sq = SquareFreeIdeal(3, [0b011, 0b110], ("a", "b", "c"))
    assert MonomialIdeal.from_squarefree(sq).support_radical() == sq


@pytest.mark.parametrize("seed", range(20))
def test_double_polarization_fixed_point(seed):
    rng = random.Random(seed)
    ideal = random_monomial_ideal(rng.randint(1, 4), rng, max_exp=3)
    once = polarize(ideal)
    twice = polarize(MonomialIdeal.from_squarefree(once.target))
    assert twice.target.gens == once.target.gens
    assert twice.target.n == once.target.n
    assert big_height_general(ideal) == big_height_general(
        MonomialIdeal.from_squarefree(once.target)
    )


@pytest.mark.parametrize("seed", range(15))
@pytest.mark.parametrize("p", [2, 3])
def test_polarization_invariance_vs_oracle(seed, p):
    """pd via polarized skeleton pipeline matches the brute-force oracle run
    on the same polarization: the two square-free routes agree post-polarization."""
    rng = random.Random(100 + seed)
    ideal = random_monomial_ideal(rng.randint(1, 4), rng, max_exp=3)
    field = PrimeField(p)
    target = polarize(ideal).target
    pd = pd_general(ideal, field)
    assert pd == pd_oracle(target, field)

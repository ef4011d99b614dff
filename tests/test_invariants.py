import random

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from monideal import (
    PrimeField,
    SimplicialComplex,
    SquareFreeIdeal,
    big_height,
    cycle_graph,
    depth,
    edge_ideal,
    is_sequentially_cm,
    krull_dimension,
    minimal_primes,
    path_graph,
    pd_oracle,
    projective_dimension,
    verify_main_theorem,
)
from conftest import (
    bridged_triangles,
    masks,
    random_ideal,
    reference_depth,
    reference_is_scm,
)


def test_depth_examples(gf2):
    assert depth(SquareFreeIdeal(2, masks({0, 1})), gf2) == 1
    assert depth(SquareFreeIdeal(4, [1, 2, 4, 8]), gf2) == 0
    assert depth(edge_ideal(cycle_graph(4)), gf2) == 1


def test_projective_dimension_examples(gf2):
    assert projective_dimension(SquareFreeIdeal(3, [1, 2, 4]), gf2) == 3
    assert projective_dimension(edge_ideal(path_graph(4)), gf2) == 2
    assert projective_dimension(edge_ideal(cycle_graph(4)), gf2) == 3


def test_is_sequentially_cm_examples(gf2):
    assert not is_sequentially_cm(edge_ideal(cycle_graph(4)), gf2)
    assert is_sequentially_cm(edge_ideal(cycle_graph(5)), gf2)
    # CM with pure complex implies SCM: the maximal ideal
    assert is_sequentially_cm(SquareFreeIdeal(3, [1, 2, 4]), gf2)
    # fails only in the piece generated by the 2-faces of Δ
    assert not is_sequentially_cm(bridged_triangles().stanley_reisner_ideal(), gf2)


def test_verify_p4(gf2):
    report = verify_main_theorem(edge_ideal(path_graph(4)), gf2)
    assert report.n == 4
    assert report.d_max == 2
    assert report.depth == 2
    assert report.pd == 2
    assert report.is_scm
    assert report.all_ok()


def test_verify_c4(gf2):
    report = verify_main_theorem(edge_ideal(cycle_graph(4)), gf2)
    assert report.depth == 1
    assert report.pd == 3
    assert not report.is_scm
    assert report.inequality_pd_ok  # 3 >= 2
    assert report.theorem_equality_ok  # vacuous
    assert report.all_ok()


def test_verify_maximal_ideal(gf2):
    ideal = SquareFreeIdeal(5, [1, 2, 4, 8, 16])
    report = verify_main_theorem(ideal, gf2)
    assert report.d_max == 5
    assert report.depth == 0
    assert report.pd == 5
    assert report.is_scm
    assert report.theorem_equality_ok
    assert report.dim == 0


def test_verify_with_oracle(gf2):
    report = verify_main_theorem(
        edge_ideal(path_graph(4)), gf2, with_oracle=True
    )
    assert report.pd_oracle == 2
    assert report.oracle_agrees
    assert report.all_ok()


def test_report_bookkeeping(gf2):
    ideal = random_ideal(random.Random(5), 6)
    report = verify_main_theorem(ideal, gf2)
    assert report.pd == report.n - report.depth
    assert 0 <= report.depth <= report.dim <= report.n


@pytest.mark.parametrize("seed", range(40))
@pytest.mark.parametrize("p", [2, 3])
def test_theorem_inequalities_random(seed, p):
    rng = random.Random(seed)
    n = rng.randint(2, 8)
    ideal = random_ideal(rng, n)
    field = PrimeField(p)
    d = big_height(ideal)
    dep = depth(ideal, field)
    assert dep <= n - d
    assert n - dep >= d
    assert dep <= krull_dimension(ideal)
    if is_sequentially_cm(ideal, field):
        assert n - dep == d


@pytest.mark.parametrize("seed", range(25))
def test_purity_steps(seed):
    """The skeleton at n-d_s-1 is the pure skeleton; above it, impurity."""
    rng = random.Random(4000 + seed)
    n = rng.randint(2, 8)
    ideal = random_ideal(rng, n)
    primes = minimal_primes(ideal)
    delta = ideal.stanley_reisner_complex()
    cut = n - primes.d_max - 1
    assert delta.skeleton(cut) == delta.pure_skeleton(cut)
    if primes.d_min < primes.d_max:
        for i in range(cut + 1, delta.dim + 1):
            assert not delta.skeleton(i).is_pure


@st.composite
def complexes(draw):
    """A complex on n <= 7 vertices other than the full simplex, whose
    Stanley-Reisner ideal would be zero."""
    n = draw(st.integers(1, 7))
    facets = draw(st.lists(st.integers(0, (1 << n) - 1), min_size=1, max_size=8))
    complex = SimplicialComplex(n, facets)
    assume(complex.facets != ((1 << n) - 1,))
    return complex


@settings(max_examples=80, deadline=None, database=None)
@given(complexes())
@example(bridged_triangles())
def test_walk_matches_skeleton_reference_and_oracle(complex):
    """Walk depth = skeleton-criterion depth = oracle depth, and walk SCM =
    pure-skeleton SCM, at p in {2, 3, 5}."""
    ideal = complex.stanley_reisner_ideal()
    for p in (2, 3, 5):
        field = PrimeField(p)
        assert (
            depth(ideal, field)
            == reference_depth(complex, field)
            == ideal.n - pd_oracle(ideal, field)
        )
        assert is_sequentially_cm(ideal, field) == reference_is_scm(complex, field)

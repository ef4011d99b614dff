import random

import pytest

from monideal import (
    BadSpecError,
    EmptyGraphError,
    FamilySpec,
    Graph,
    MonomialIdeal,
    PrimeField,
    SquareFreeIdeal,
    TooManyFacetsError,
    cycle_graph,
    edge_ideal,
    generate,
    is_sequentially_cm,
    is_simplicial_forest,
    path_graph,
    pruefer_tree,
)
from monideal.families import (
    complete_graph,
    random_chordal,
    random_forest,
    random_monomial_ideal,
    random_simplicial_tree,
    random_squarefree_ideal,
    tree_paths,
)
from monideal import families
from monideal.bitsets import bits
from conftest import count_calls, masks


def test_graph_validation():
    with pytest.raises(ValueError):
        Graph(3, [(0, 0)])
    with pytest.raises(ValueError):
        Graph(2, [(0, 5)])
    g = Graph(3, [(1, 0), (0, 1)])
    assert g.edges == frozenset({(0, 1)})


def test_edge_ideal_examples():
    assert edge_ideal(path_graph(4)).gens == tuple(
        masks({0, 1}, {1, 2}, {2, 3})
    )
    assert edge_ideal(cycle_graph(5)).gens == tuple(
        masks({0, 1}, {0, 4}, {1, 2}, {2, 3}, {3, 4})
    )
    assert edge_ideal(complete_graph(3)).gens == tuple(
        masks({0, 1}, {0, 2}, {1, 2})
    )
    with pytest.raises(EmptyGraphError):
        edge_ideal(Graph(3, []))


def connected(graph):
    if graph.n == 0:
        return True
    seen = {0}
    frontier = [0]
    while frontier:
        v = frontier.pop()
        for w in graph.neighbors(v):
            if w not in seen:
                seen.add(w)
                frontier.append(w)
    return len(seen) == graph.n


@pytest.mark.parametrize("seed", range(20))
def test_pruefer_tree_is_tree(seed):
    rng = random.Random(seed)
    n = rng.randint(2, 12)
    tree = pruefer_tree(n, rng)
    assert len(tree.edges) == n - 1
    assert connected(tree)


@pytest.mark.parametrize("seed", range(15))
def test_random_chordal_is_chordal_and_connected(seed):
    rng = random.Random(seed)
    n = rng.randint(2, 9)
    graph = random_chordal(n, rng)
    assert connected(graph)
    # chordality via a perfect elimination check on the reversed insertion
    # order: the earlier neighbors of each vertex must form a clique
    for v in range(n - 1, 0, -1):
        earlier = [w for w in graph.neighbors(v) if w < v]
        for i, a in enumerate(earlier):
            for b in earlier[i + 1 :]:
                assert (min(a, b), max(a, b)) in graph.edges


@pytest.mark.parametrize("seed", range(15))
def test_random_forest_subset_of_tree_edges(seed):
    rng = random.Random(seed)
    n = rng.randint(2, 10)
    forest = random_forest(n, rng)
    assert 1 <= len(forest.edges) <= n - 1
    # forests are acyclic: every connected subgraph has edges < vertices
    assert not _has_cycle(forest)


def _has_cycle(graph):
    parent = list(range(graph.n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for u, v in sorted(graph.edges):
        ru, rv = find(u), find(v)
        if ru == rv:
            return True
        parent[ru] = rv
    return False


def test_is_simplicial_forest_examples():
    path = SquareFreeIdeal(4, masks({0, 1}, {1, 2}, {2, 3})).facet_complex()
    assert is_simplicial_forest(path)
    c4 = SquareFreeIdeal(
        4, masks({0, 1}, {1, 2}, {2, 3}, {0, 3})
    ).facet_complex()
    assert not is_simplicial_forest(c4)
    single = SquareFreeIdeal(3, [0b111]).facet_complex()
    assert is_simplicial_forest(single)


def test_is_simplicial_forest_cap():
    star = SquareFreeIdeal(
        22, [(1 << 21) | (1 << i) for i in range(21)]
    ).facet_complex()
    with pytest.raises(TooManyFacetsError):
        is_simplicial_forest(star)


@pytest.mark.parametrize("seed", range(20))
def test_simplicial_tree_generator_validated_by_checker(seed):
    rng = random.Random(seed)
    n = rng.randint(1, 9)
    complex = random_simplicial_tree(n, rng)
    assert complex.n == n
    assert is_simplicial_forest(complex)


@pytest.mark.parametrize("max_facet", [2, 3, 4])
@pytest.mark.parametrize("n", [6, 10, 14])
def test_simplicial_tree_facets_respect_max_facet(n, max_facet):
    for seed in range(20):
        complex = random_simplicial_tree(n, random.Random(seed), max_facet)
        assert max(f.bit_count() for f in complex.facets) <= max_facet
        assert is_simplicial_forest(complex)
        if max_facet == 2:
            # every new facet is one shared and one fresh vertex: a tree
            graph = Graph(n, [tuple(bits(f)) for f in complex.facets])
            assert len(graph.edges) == n - 1
            assert connected(graph)


def test_simplicial_tree_skips_growths_the_checker_cannot_take(monkeypatch):
    """With max_facet 2 a 24-vertex growth has 23 facets, more than the
    forest checker takes, so only the private-only fallback is grown."""
    calls = count_calls(monkeypatch, families, "_grow_by_leaf_attachment")
    complex = random_simplicial_tree(24, random.Random(1), max_facet=2)
    assert len(calls) == 1
    assert len(complex.facets) == 23


@pytest.mark.parametrize(
    "sampler, n, kwargs",
    [
        (random_squarefree_ideal, 5, {"max_gens": 0}),
        (random_squarefree_ideal, 5, {"max_gens": -1}),
        (random_monomial_ideal, 5, {"max_gens": 0}),
        (random_monomial_ideal, 5, {"max_gens": -1}),
        (random_simplicial_tree, 5, {"max_facet": 1}),
        (random_simplicial_tree, 1, {"max_facet": 0}),
    ],
)
def test_samplers_reject_out_of_range_bounds(sampler, n, kwargs):
    """Called directly, a sampler refuses a bound below its least usable
    value, naming the parameter, instead of replacing it or failing inside
    ``randrange``."""
    (key,) = kwargs
    with pytest.raises(BadSpecError, match=f"^{key} must be >= "):
        sampler(n, random.Random(1), **kwargs)


def test_tree_paths():
    tree = path_graph(5)
    assert tree_paths(tree, 3) == sorted(
        [0b00111, 0b01110, 0b11100]
    )
    star = Graph(4, [(0, 1), (0, 2), (0, 3)])
    assert tree_paths(star, 4) == []
    with pytest.raises(BadSpecError):
        tree_paths(tree, 1)


def test_family_spec_validation():
    with pytest.raises(BadSpecError):
        FamilySpec(kind="nonsense", n=4)
    with pytest.raises(BadSpecError):
        FamilySpec(kind="cycle", n=2)
    with pytest.raises(BadSpecError):
        FamilySpec(kind="tree", n=4, count=0)


@pytest.mark.parametrize(
    "kind, n, extra",
    [
        ("random_squarefree", 5, {"max_gens": 0}),
        ("random_squarefree", 5, {"max_gens": -1}),
        ("random_monomial", 4, {"max_gens": 0}),
        ("random_monomial", 4, {"max_exp": 0}),
        ("simplicial_tree", 6, {"max_facet": 0}),
        ("simplicial_tree", 6, {"max_facet": 1}),
        ("simplicial_tree", 1, {"max_facet": 0}),
    ],
)
def test_family_spec_rejects_out_of_range_extras(kind, n, extra):
    """An extra below its least usable value is refused up front, naming
    its flag, instead of silently replaced or failing inside the sampler."""
    (key,) = extra
    flag = "--" + key.replace("_", "-")
    with pytest.raises(BadSpecError, match=f"^{flag} must be >= "):
        FamilySpec(kind=kind, n=n, extra=extra)


def test_family_spec_accepts_least_extras():
    assert generate(FamilySpec("simplicial_tree", 6, extra={"max_facet": 2}))
    assert generate(FamilySpec("simplicial_tree", 1, extra={"max_facet": 1}))
    assert generate(FamilySpec("random_monomial", 4, extra={"max_gens": 1, "max_exp": 1}))


def test_generate_cycle_exact():
    ideals = generate(FamilySpec(kind="cycle", n=4))
    assert ideals == [edge_ideal(cycle_graph(4))]


def test_generate_deterministic():
    spec = FamilySpec(kind="tree", n=6, seed=1, count=5)
    first = generate(spec)
    second = generate(spec)
    assert first == second
    shifted = generate(FamilySpec(kind="tree", n=6, seed=2, count=5))
    assert shifted != first


def test_generate_each_kind_produces_valid_output():
    for kind in ("tree", "forest", "chordal", "cycle", "complete"):
        for ideal in generate(FamilySpec(kind=kind, n=5, seed=3, count=3)):
            assert isinstance(ideal, SquareFreeIdeal)
            assert all(g.bit_count() == 2 for g in ideal.gens)
    for ideal in generate(
        FamilySpec(kind="simplicial_tree", n=6, seed=7, count=3)
    ):
        assert isinstance(ideal, SquareFreeIdeal)
        assert is_simplicial_forest(ideal.facet_complex())
    for ideal in generate(
        FamilySpec(kind="path_ideal", n=6, seed=4, count=3, extra={"t": 3})
    ):
        assert isinstance(ideal, SquareFreeIdeal)
        assert all(g.bit_count() == 3 for g in ideal.gens)
    for ideal in generate(
        FamilySpec(kind="random_squarefree", n=6, seed=5, count=3)
    ):
        assert isinstance(ideal, SquareFreeIdeal)
    for ideal in generate(
        FamilySpec(kind="random_monomial", n=3, seed=6, count=3)
    ):
        assert isinstance(ideal, MonomialIdeal)


@pytest.mark.parametrize("kind", ["tree", "forest", "chordal", "simplicial_tree"])
@pytest.mark.parametrize("p", [2, 3])
def test_known_scm_families(kind, p):
    """Trees, forests, chordal graphs and simplicial trees all pass the
    pure-skeleton test; their pd equals the big height downstream."""
    field = PrimeField(p)
    for ideal in generate(FamilySpec(kind=kind, n=7, seed=11, count=5)):
        assert is_sequentially_cm(ideal, field)


def test_cycle_classification(gf2):
    """C_3 and C_5 pass the pure-skeleton test, C_4 does not; produced by
    the engine, not assumed."""
    assert is_sequentially_cm(edge_ideal(cycle_graph(3)), gf2)
    assert not is_sequentially_cm(edge_ideal(cycle_graph(4)), gf2)
    assert is_sequentially_cm(edge_ideal(cycle_graph(5)), gf2)


@pytest.mark.parametrize("kind", ["tree", "forest", "chordal", "simplicial_tree"])
def test_scm_families_reach_big_height(kind, gf2):
    from monideal import big_height, pd_oracle, projective_dimension

    for ideal in generate(FamilySpec(kind=kind, n=6, seed=23, count=4)):
        pd = projective_dimension(ideal, gf2)
        assert pd == big_height(ideal)
        assert pd == pd_oracle(ideal, gf2)

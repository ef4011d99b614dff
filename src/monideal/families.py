"""Generators for the ideal families used in the experiments.

Trees and forests come from random Pruefer sequences, chordal graphs from an
incremental clique-attachment construction (chordal by construction, no
recognition pass), simplicial trees from leaf attachment, path ideals from
enumerated tree paths, and the two random samplers cover square-free and
bounded-exponent monomial ideals.  Everything is deterministic in the seed.
"""
from __future__ import annotations

import random
from dataclasses import dataclass, field as dataclass_field
from itertools import combinations

from .bitsets import as_mask, bits
from .complexes import SimplicialComplex, SquareFreeIdeal
from .errors import BadSpecError, EmptyGraphError, TooManyFacetsError
from .polarization import MonomialIdeal

KINDS = (
    "tree",
    "forest",
    "chordal",
    "cycle",
    "complete",
    "simplicial_tree",
    "path_ideal",
    "random_squarefree",
    "random_monomial",
)

# is_simplicial_forest visits every facet subset, so it refuses more facets
_FOREST_CAP = 20


@dataclass(frozen=True)
class Graph:
    """Simple undirected graph on vertices 0..n-1."""

    n: int
    edges: frozenset

    def __init__(self, n: int, edges):
        normalized = set()
        for u, v in edges:
            if u == v:
                raise ValueError(f"loop at vertex {u}")
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u},{v}) outside vertex range")
            normalized.add((min(u, v), max(u, v)))
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "edges", frozenset(normalized))

    def neighbors(self, v: int) -> set:
        out = set()
        for a, b in self.edges:
            if a == v:
                out.add(b)
            elif b == v:
                out.add(a)
        return out


def path_graph(n: int) -> Graph:
    return Graph(n, [(i, i + 1) for i in range(n - 1)])


def cycle_graph(n: int) -> Graph:
    if n < 3:
        raise ValueError("cycles need at least 3 vertices")
    return Graph(n, [(i, (i + 1) % n) for i in range(n)])


def complete_graph(n: int) -> Graph:
    return Graph(n, list(combinations(range(n), 2)))


def edge_ideal(graph: Graph) -> SquareFreeIdeal:
    """One quadratic generator per edge."""
    if not graph.edges:
        raise EmptyGraphError("edge ideal of an edgeless graph is zero")
    return SquareFreeIdeal(
        graph.n, [(1 << u) | (1 << v) for u, v in graph.edges]
    )


def pruefer_tree(n: int, rng: random.Random) -> Graph:
    """Uniformly random labeled tree on n >= 2 vertices."""
    if n == 2:
        return Graph(2, [(0, 1)])
    seq = [rng.randrange(n) for _ in range(n - 2)]
    degree = [1] * n
    for v in seq:
        degree[v] += 1
    edges = []
    leaves = sorted(v for v in range(n) if degree[v] == 1)
    for v in seq:
        leaf = leaves.pop(0)
        edges.append((leaf, v))
        degree[v] -= 1
        if degree[v] == 1:
            # keep the leaf pool sorted for determinism
            lo = 0
            while lo < len(leaves) and leaves[lo] < v:
                lo += 1
            leaves.insert(lo, v)
    edges.append((leaves[0], leaves[1]))
    return Graph(n, edges)


def random_forest(n: int, rng: random.Random) -> Graph:
    """Random tree with a random subset of edges deleted (>= 1 kept)."""
    tree = pruefer_tree(n, rng)
    edges = sorted(tree.edges)
    kept = [e for e in edges if rng.random() < 0.7]
    if not kept:
        kept = [edges[rng.randrange(len(edges))]]
    return Graph(n, kept)


def random_chordal(n: int, rng: random.Random) -> Graph:
    """Connected chordal graph: each new vertex joins a clique.

    Vertex v picks an anchor u < v and then a subset of the anchor's earlier
    neighborhood that already forms a clique with u; attaching to a clique is
    a perfect-elimination step, so the result is chordal by construction.
    """
    edges = []
    adjacency = [set() for _ in range(n)]

    def connect(u, v):
        edges.append((u, v))
        adjacency[u].add(v)
        adjacency[v].add(u)

    for v in range(1, n):
        u = rng.randrange(v)
        clique = {u}
        candidates = sorted(adjacency[u] & set(range(v)))
        rng.shuffle(candidates)
        for w in candidates:
            if rng.random() < 0.5 and all(x in adjacency[w] for x in clique):
                clique.add(w)
        for w in clique:
            connect(w, v)
    return Graph(n, edges)


def random_simplicial_tree(
    n: int, rng: random.Random, max_facet: int = 4
) -> SimplicialComplex:
    """Random simplicial tree: leaf-attachment growth, checker-validated.

    Each new facet meets the old complex inside a single existing facet.
    That alone does not make every subcollection keep a leaf (dropping a hub
    facet can strand its neighbors), so candidates are validated with
    ``is_simplicial_forest`` and resampled; after a few misses, or at once
    when every growth has more facets than the checker takes, the attachment
    falls back to sharing only parent-private vertices, which forces every
    facet to meet its parent alone and is a forest unconditionally.
    """
    if n < 1:
        raise BadSpecError("simplicial tree needs n >= 1")
    _at_least("max_facet", max_facet, _least_facet(n))
    # a growth is connected and its facets hold at most max_facet vertices,
    # so after the first each adds at most max_facet - 1: when even the
    # fewest facets exceed the checker's cap, no candidate can be checked
    fewest = 1 if n <= max_facet else 1 + -(-(n - max_facet) // (max_facet - 1))
    for _ in range(8 if fewest <= _FOREST_CAP else 0):
        child = random.Random(rng.getrandbits(64))
        complex = _grow_by_leaf_attachment(n, child, max_facet, private_only=False)
        if len(complex.facets) <= _FOREST_CAP and is_simplicial_forest(complex):
            return complex
    child = random.Random(rng.getrandbits(64))
    return _grow_by_leaf_attachment(n, child, max_facet, private_only=True)


def _grow_by_leaf_attachment(n, rng, max_facet, private_only):
    """Attach facets one at a time, each meeting the complex inside one
    existing facet and holding at most ``max_facet`` vertices.  With
    ``private_only`` the shared vertices come from the parent's private part,
    so every facet meets its parent and nothing else; any subcollection then
    has a leaf (take a facet of maximal tree depth)."""
    first = rng.randint(1, min(max_facet, n))
    facets = [as_mask(range(first))]
    used = first
    while used < n:
        if private_only:
            pools = []
            for i, f in enumerate(facets):
                pool = f
                for j, other in enumerate(facets):
                    if j != i:
                        pool &= ~other
                if pool:
                    pools.append(pool)
            # the newest facet always keeps its fresh vertices private
            pool = pools[rng.randrange(len(pools))]
        else:
            pool = facets[rng.randrange(len(facets))]
        pool_verts = list(bits(pool))
        shared = rng.sample(
            pool_verts, rng.randint(1, min(len(pool_verts), max_facet - 1))
        )
        fresh_count = rng.randint(1, min(max_facet - len(shared), n - used))
        fresh = range(used, used + fresh_count)
        facets.append(as_mask(list(shared) + list(fresh)))
        used += fresh_count
    return SimplicialComplex(n, facets)


def tree_paths(tree: Graph, t: int) -> list[int]:
    """Vertex sets of all simple paths on exactly t vertices."""
    if t < 2:
        raise BadSpecError("path length t must be >= 2")
    adjacency = {v: sorted(tree.neighbors(v)) for v in range(tree.n)}
    found = set()

    def extend(path):
        if len(path) == t:
            found.add(as_mask(path))
            return
        for w in adjacency[path[-1]]:
            if w not in path:
                extend(path + [w])

    for v in range(tree.n):
        extend([v])
    return sorted(found)


def _at_least(name: str, value: int, bound: int):
    if value < bound:
        raise BadSpecError(f"{name} must be >= {bound}, got {value}")


def _least_facet(n: int) -> int:
    # a one-vertex simplicial tree is a single 1-vertex facet; any larger
    # one attaches facets with a shared and a fresh vertex each
    return 2 if n >= 2 else 1


def random_squarefree_ideal(
    n: int, rng: random.Random, max_gens: int | None = None
) -> SquareFreeIdeal:
    """Random antichain of supports; never zero or unit."""
    if n < 1:
        raise BadSpecError("need n >= 1")
    if max_gens is None:
        max_gens = max(2, n)
    _at_least("max_gens", max_gens, 1)
    count = rng.randint(1, max_gens)
    gens = []
    for _ in range(count):
        size = rng.randint(1, max(1, min(n, 4)))
        gens.append(as_mask(rng.sample(range(n), size)))
    return SquareFreeIdeal(n, gens)


def random_monomial_ideal(
    n: int,
    rng: random.Random,
    max_exp: int = 3,
    max_gens: int | None = None,
) -> MonomialIdeal:
    """Random bounded exponent vectors, minimalized at construction."""
    if n < 1 or max_exp < 1:
        raise BadSpecError("need n >= 1 and max_exp >= 1")
    if max_gens is None:
        max_gens = max(2, n)
    _at_least("max_gens", max_gens, 1)
    count = rng.randint(1, max_gens)
    gens = []
    for _ in range(count):
        vec = [0] * n
        support = rng.sample(range(n), rng.randint(1, min(n, 3)))
        for j in support:
            vec[j] = rng.randint(1, max_exp)
        gens.append(tuple(vec))
    return MonomialIdeal(n, gens)


@dataclass(frozen=True)
class FamilySpec:
    """What to generate: a kind, a size, a seed, and kind-specific extras."""

    kind: str
    n: int
    seed: int = 0
    count: int = 1
    extra: dict = dataclass_field(default_factory=dict)

    def __post_init__(self):
        if self.kind not in KINDS:
            raise BadSpecError(f"unknown kind {self.kind!r}; one of {KINDS}")
        minimum = {"cycle": 3, "tree": 2, "forest": 2, "chordal": 2,
                   "complete": 2, "path_ideal": 3}.get(self.kind, 1)
        if self.n < minimum:
            raise BadSpecError(f"kind {self.kind!r} needs n >= {minimum}")
        if self.count < 1:
            raise BadSpecError("count must be positive")
        least = {"max_gens": 1, "max_exp": 1, "max_facet": _least_facet(self.n)}
        for key, bound in least.items():
            value = self.extra.get(key)
            if value is not None:
                _at_least("--" + key.replace("_", "-"), value, bound)


def _item_rng(spec: FamilySpec, index: int) -> random.Random:
    return random.Random(spec.seed * 1_000_003 + index)


def generate(spec: FamilySpec):
    """Generate ``spec.count`` ideals, deterministically in the seed.

    Exact kinds (cycle, complete) ignore the seed.  path_ideal resamples
    trees (bounded, seed-derived) until one has a path on t vertices.
    Returns square-free ideals except for kind random_monomial.
    """
    out = []
    for index in range(spec.count):
        rng = _item_rng(spec, index)
        kind = spec.kind
        if kind == "cycle":
            out.append(edge_ideal(cycle_graph(spec.n)))
        elif kind == "complete":
            out.append(edge_ideal(complete_graph(spec.n)))
        elif kind == "tree":
            out.append(edge_ideal(pruefer_tree(spec.n, rng)))
        elif kind == "forest":
            out.append(edge_ideal(random_forest(spec.n, rng)))
        elif kind == "chordal":
            out.append(edge_ideal(random_chordal(spec.n, rng)))
        elif kind == "simplicial_tree":
            complex = random_simplicial_tree(
                spec.n, rng, max_facet=spec.extra.get("max_facet", 4)
            )
            out.append(complex.facet_ideal())
        elif kind == "path_ideal":
            t = spec.extra.get("t", 3)
            if not 2 <= t <= spec.n:
                raise BadSpecError(f"path_ideal needs 2 <= t <= n, got t={t}")
            for attempt in range(64):
                paths = tree_paths(pruefer_tree(spec.n, rng), t)
                if paths:
                    break
            else:
                raise BadSpecError(
                    f"no tree on {spec.n} vertices with a {t}-vertex path found"
                )
            out.append(SquareFreeIdeal(spec.n, paths))
        elif kind == "random_squarefree":
            out.append(
                random_squarefree_ideal(
                    spec.n, rng, max_gens=spec.extra.get("max_gens")
                )
            )
        elif kind == "random_monomial":
            out.append(
                random_monomial_ideal(
                    spec.n,
                    rng,
                    max_exp=spec.extra.get("max_exp", 3),
                    max_gens=spec.extra.get("max_gens"),
                )
            )
    return out


def is_simplicial_forest(complex: SimplicialComplex) -> bool:
    """True iff every nonempty subcollection of facets has a leaf.

    A leaf of a collection is a facet F whose intersection with the union of
    the others fits inside a single other facet.  Exhaustive over all facet
    subsets, so the facet count is capped.
    """
    if complex.is_void or complex.is_irrelevant:
        raise ValueError("simplicial forests need at least one nonempty facet")
    facets = complex.facets
    q = len(facets)
    if q > _FOREST_CAP:
        raise TooManyFacetsError(
            f"{q} facets; exhaustive check capped at {_FOREST_CAP}"
        )
    for picks in range(1, 1 << q):
        chosen = [facets[i] for i in bits(picks)]
        if len(chosen) == 1:
            continue
        if not _has_leaf(chosen):
            return False
    return True


def _has_leaf(facets: list[int]) -> bool:
    for i, f in enumerate(facets):
        others = [g for j, g in enumerate(facets) if j != i]
        union = 0
        for g in others:
            union |= g
        joint = f & union
        if any(joint & ~g == 0 for g in others):
            return True
    return False

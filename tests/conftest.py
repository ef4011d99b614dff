"""Shared brute-force reference implementations and corpus samplers.

The references here work straight from the definitions, by sweeping all 2^n
subsets or every submask of every facet, and never reuse the package's
clever routes (complement-of-covers, antichain tricks, shortcut pruning,
memos), so they can serve as independent oracles for the fast paths.
"""
import random
import sys

import pytest

from monideal import PrimeField, SimplicialComplex, SquareFreeIdeal
from monideal.bitsets import sort_key
from monideal.families import Graph
from monideal.homology import reduced_betti_numbers


def subset_leq(a, b):
    """a subseteq b on masks."""
    return a & ~b == 0


def brute_minimal_covers(edge_masks, n):
    """All minimal transversals by filtering every subset of the universe."""
    covers = [s for s in range(1 << n) if all(s & e for e in edge_masks)]
    minimal = [
        c
        for c in covers
        if not any(o != c and subset_leq(o, c) for o in covers)
    ]
    return sorted(minimal, key=sort_key)


def brute_faces(facet_masks):
    """Every subset of the universe lying under some facet: the union of
    each facet's submasks, walked by ``sub = (sub - 1) & facet``."""
    faces = set()
    for facet in facet_masks:
        sub = facet
        while True:
            faces.add(sub)
            if sub == 0:
                break
            sub = (sub - 1) & facet
    return faces


def brute_sr_faces(ideal):
    """Faces of the Stanley-Reisner complex straight from the definition."""
    return {
        s
        for s in range(1 << ideal.n)
        if not any(subset_leq(g, s) for g in ideal.gens)
    }


def brute_minimal_nonfaces(complex):
    faces = brute_faces(complex.facets)
    nonfaces = [s for s in range(1 << complex.n) if s not in faces]
    return sorted(
        (
            s
            for s in nonfaces
            if not any(o != s and subset_leq(o, s) for o in nonfaces)
        ),
        key=sort_key,
    )


def complex_from_faces(face_set, n, labels=None):
    """Build a complex from an explicit, down-closed face set.

    A face of a down-closed set is maximal iff adding any one more vertex
    leaves the set; only those faces are kept.
    """
    maximal = [
        f
        for f in face_set
        if not any((f | 1 << v) in face_set for v in range(n) if not (f >> v) & 1)
    ]
    return SimplicialComplex(n, maximal, labels)


def reference_betti_table(ideal, field):
    """Hochster's formula with no lattice skip: the reduced homology of the
    restriction to every non-face sigma, each restriction built by
    ``restrict`` from the brute-force Stanley-Reisner complex.  Returns the
    nonzero entries {(i, sigma): beta}, with beta[0, empty] = 1."""
    faces = brute_sr_faces(ideal)
    delta = complex_from_faces(faces, ideal.n)
    entries = {(0, 0): 1}
    for sigma in range(1, 1 << ideal.n):
        if sigma in faces:
            continue
        betti = reduced_betti_numbers(delta.restrict(sigma), field)
        for deg, value in betti.items():
            if value:
                entries[(sigma.bit_count() - deg - 1, sigma)] = value
    return entries


def reference_is_cm(complex, field):
    """Reisner's criterion with no shortcuts.

    Links are built by brute-force subset sweep; every face is checked, no
    purity or cone pruning.  Homology itself is the package's (validated
    against sympy in test_homology).
    """
    faces = brute_faces(complex.facets)
    for face in faces:
        # lk F = {G : G and F disjoint, G | F a face} = {H - F : F <= H}
        link_faces = {h ^ face for h in faces if h & face == face}
        link = complex_from_faces(link_faces, complex.n)
        dim = max(f.bit_count() for f in link_faces) - 1
        betti = reduced_betti_numbers(link, field)
        if any(betti[i] for i in range(-1, dim)):
            return False
    return True


def reference_depth(complex, field):
    """The paper's skeleton criterion: depth k[Δ] = 1 + max{i : the
    i-skeleton of Δ is CM}, every CM test by ``reference_is_cm``.

    Scans i downward and stops at the first CM skeleton, so no monotonicity
    of skeleton CM-ness is assumed.  The (-1)-skeleton is the irrelevant
    complex and always CM.
    """
    return next(
        i + 1
        for i in range(complex.dim, -2, -1)
        if reference_is_cm(complex.skeleton(i), field)
    )


def reference_is_scm(complex, field):
    """Duval's pure-skeleton criterion: every pure i-skeleton, i >= 0, is CM."""
    return all(
        reference_is_cm(complex.pure_skeleton(i), field)
        for i in range(complex.dim + 1)
    )


def non_scm_graph(rng, k, n):
    """Graph on n > k vertices with an induced k-cycle C, k in {4, 6, 7},
    whose independence complex is not sequentially Cohen-Macaulay.

    Vertex k is a hub adjacent to no vertex of C; every vertex above k is a
    leaf adjacent to the hub and, at random, to one vertex of C.  The link
    of {hub} in the independence complex is then the independence complex
    of C, which is not sequentially CM for these k (cycles are sequentially
    CM only for k in {3, 5}), and links of sequentially CM complexes are
    sequentially CM.
    """
    edges = [(i, (i + 1) % k) for i in range(k)]
    for leaf in range(k + 1, n):
        edges.append((k, leaf))
        if rng.random() < 0.6:
            edges.append((rng.randrange(k), leaf))
    return Graph(n, edges)


def rp2_cone_and_suspension():
    """RP^2, its cone and its suspension: CM (so SCM) exactly when p != 2."""
    rp2 = rp2_complex()
    apex, south = 1 << 6, 1 << 7
    cone = SimplicialComplex(7, [f | apex for f in rp2.facets])
    suspension = SimplicialComplex(
        8, [f | apex for f in rp2.facets] + [f | south for f in rp2.facets]
    )
    return rp2, cone, suspension


def bridged_triangles():
    """Two disjoint triangles joined by an edge: not sequentially CM, though
    it is contractible and every link is connected below its smallest facet
    dimension.  Only the piece generated by the 2-faces, two disjoint
    triangles, fails, so a test that reads just the links misses it."""
    return SimplicialComplex(6, [0b000111, 0b111000, 0b001100])


def random_complex(rng, n):
    """Random nonvoid complex with at least one nonempty facet.

    At least two facets are drawn, each of size below n (for n > 1): a
    facet drawn at full size would swallow every other one, and then most
    samples would be a single simplex.
    """
    count = rng.randint(2, max(2, n))
    facets = []
    for _ in range(count):
        size = rng.randint(1, max(1, n - 1))
        facets.append(sum(1 << v for v in rng.sample(range(n), size)))
    return SimplicialComplex(n, facets)


def random_ideal(rng, n, max_gens=None):
    count = rng.randint(1, max_gens or max(2, n))
    gens = []
    for _ in range(count):
        size = rng.randint(1, min(n, 4))
        gens.append(sum(1 << v for v in rng.sample(range(n), size)))
    return SquareFreeIdeal(n, gens)


@pytest.fixture
def gf2():
    return PrimeField(2)


@pytest.fixture
def gf3():
    return PrimeField(3)


@pytest.fixture
def gf5():
    return PrimeField(5)


def rp2_complex():
    """The 6-vertex triangulation of the real projective plane."""
    facets = [
        [0, 1, 4], [0, 1, 5], [0, 2, 3], [0, 2, 4], [0, 3, 5],
        [1, 2, 3], [1, 2, 5], [1, 3, 4], [2, 4, 5], [3, 4, 5],
    ]
    return SimplicialComplex(6, facets)


def masks(*vertex_sets):
    return [sum(1 << v for v in vs) for vs in vertex_sets]


def count_calls(monkeypatch, module, name):
    """Count the calls of ``module.name`` made through any monideal module
    that imported it; returns the list the calls are appended to."""
    original = getattr(module, name)
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    for site_name, site in list(sys.modules.items()):
        if site_name.startswith("monideal") and vars(site).get(name) is original:
            monkeypatch.setattr(site, name, counted)
    return calls

import ast
import random
import subprocess
import sys
from functools import reduce
from itertools import combinations
from operator import and_, or_
from pathlib import Path

import pytest
from sympy import GF, Matrix
from sympy.polys.matrices import DomainMatrix

import monideal
from monideal import (
    PrimeField,
    SimplicialComplex,
    VoidComplexError,
    cycle_graph,
    edge_ideal,
    is_cohen_macaulay,
    pd_oracle,
    reduced_betti_numbers,
)
from monideal import homology
from monideal.bitsets import bits, sort_key
from monideal.families import FamilySpec, generate
from monideal.homology import (
    _boundary_columns,
    _core,
    _link_walk,
    _rank_gf2,
    _rank_modp,
)
from conftest import (
    bridged_triangles,
    brute_faces,
    count_calls,
    masks,
    random_complex,
    random_ideal,
    reference_depth,
    reference_is_cm,
    reference_is_scm,
    rp2_complex,
    rp2_cone_and_suspension,
)


def sympy_rank(matrix, p):
    m = Matrix([list(map(int, row)) for row in matrix])
    return DomainMatrix.from_Matrix(m).convert_to(GF(p)).rank()


def dense_rank(matrix, p):
    """Rank of a dense matrix (rows of ints) through the package's kernels:
    bit-packed rows at p = 2, sparse dict rows at odd p."""
    if p == 2:
        return _rank_gf2(
            sum(1 << j for j, x in enumerate(r) if x % 2) for r in matrix
        )
    return _rank_modp(({j: x for j, x in enumerate(r)} for r in matrix), p)


def boundary(complex, i, p):
    """The i-th boundary map mod p as a list of rows: rows the (i-1)-faces,
    columns the i-faces, both in ``faces_by_dim`` order."""
    by_dim = complex.faces_by_dim()
    rows, cols = by_dim[i - 1], by_dim[i]
    matrix = [[0] * len(cols) for _ in rows]
    for j, column in enumerate(_boundary_columns(cols, rows, p)):
        for k, x in column.items():
            matrix[k][j] = x
    return matrix


class TestPrimeField:
    def test_valid(self):
        assert PrimeField(2).p == 2
        assert PrimeField(65521).p == 65521  # largest prime below 2^16

    @pytest.mark.parametrize("p", [0, 1, 4, 9, 15, 2**16 + 1, 65536])
    def test_invalid(self, p):
        with pytest.raises(ValueError):
            PrimeField(p)


class TestRank:
    def test_examples(self):
        assert dense_rank([[1, 0], [0, 1]], 2) == 2
        assert dense_rank([[1, 1], [1, 1]], 2) == 1
        # hollow triangle vertex-edge boundary over GF(3)
        h = SimplicialComplex(3, masks({0, 1}, {0, 2}, {1, 2}))
        b1 = boundary(h, 1, 3)
        assert dense_rank(b1, 3) == 2

    def test_empty(self):
        assert dense_rank([], 5) == 0
        assert dense_rank([[]], 5) == 0

    @pytest.mark.parametrize("seed", range(16))
    @pytest.mark.parametrize("p", [2, 3, 5, 7])
    def test_against_sympy(self, seed, p):
        """Seed 15 draws entries from [-3p, 3p): the kernels must reduce
        arbitrary ints mod p themselves."""
        rng = random.Random(seed * 7 + p)
        rows = rng.randint(1, 12)
        cols = rng.randint(1, 12)
        low, high = (-3 * p, 3 * p) if seed == 15 else (0, p)
        matrix = [
            [rng.randrange(low, high) for _ in range(cols)] for _ in range(rows)
        ]
        assert dense_rank(matrix, p) == sympy_rank(matrix, p)

    @pytest.mark.parametrize("seed", range(10))
    def test_permutation_invariance(self, seed):
        rng = random.Random(500 + seed)
        p = rng.choice([2, 3, 5])
        rows = rng.randint(2, 10)
        cols = rng.randint(2, 10)
        matrix = [
            [rng.randrange(p) for _ in range(cols)] for _ in range(rows)
        ]
        base = dense_rank(matrix, p)
        shuffled = matrix[:]
        rng.shuffle(shuffled)
        transposed_cols = list(range(cols))
        rng.shuffle(transposed_cols)
        permuted = [[row[j] for j in transposed_cols] for row in shuffled]
        assert dense_rank(permuted, p) == base

    @pytest.mark.parametrize("p", [3, 5, 7])
    def test_large_matrix(self, p):
        rng = random.Random(42)
        matrix = [[rng.randrange(p) for _ in range(40)] for _ in range(40)]
        assert dense_rank(matrix, p) == sympy_rank(matrix, p)


class TestBoundary:
    @pytest.mark.parametrize("seed", range(10))
    @pytest.mark.parametrize("p", [2, 3, 5])
    def test_boundary_squares_to_zero(self, seed, p):
        rng = random.Random(seed)
        complex = random_complex(rng, rng.randint(2, 7))
        for i in range(1, complex.dim + 1):
            lower = Matrix(boundary(complex, i - 1, p))
            upper = Matrix(boundary(complex, i, p))
            assert all(x % p == 0 for x in lower * upper)

    def test_augmentation_row(self):
        c = SimplicialComplex(3, masks({0, 1, 2}))
        b0 = boundary(c, 0, 2)
        assert b0 == [[1, 1, 1]]


def test_no_numpy_import():
    """The package and its CLI import no numpy, checked in a fresh interpreter
    that finds the package under test first."""
    src = str(Path(monideal.__file__).parents[1])
    code = (
        f"import sys; sys.path.insert(0, {src!r}); import monideal, monideal.cli; "
        "print('numpy' in sys.modules)"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "False"


def test_no_global_statement():
    """No package module rebinds a module global from inside a function, so
    no computation leaves process-wide state behind."""
    sources = sorted(Path(monideal.__file__).parent.glob("*.py"))
    assert sources
    for path in sources:
        tree = ast.parse(path.read_text(), filename=str(path))
        found = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Global)]
        assert not found, f"{path.name}: global statement at lines {found}"


def test_public_surface():
    """Every exported name resolves, once, and the test-only adapters and
    second routes stay out of the package."""
    exported = monideal.__all__
    assert len(exported) == len(set(exported))
    for name in exported:
        assert hasattr(monideal, name), name
    removed = {
        "rank_mod_p": homology,
        "boundary_matrix": homology,
        "depth_oracle": monideal.betti,
        "minimal_vertex_covers": monideal.covers,
    }
    for name, module in removed.items():
        assert name not in exported and not hasattr(module, name), name
    assert not hasattr(monideal.PrimaryDecomposition, "distinct_heights")
    assert not hasattr(monideal.PolarizationMap, "target_index")


class TestBetti:
    def test_fixtures(self, gf2, gf3):
        hollow = SimplicialComplex(3, masks({0, 1}, {0, 2}, {1, 2}))
        for field in (gf2, gf3):
            assert reduced_betti_numbers(hollow, field) == {-1: 0, 0: 0, 1: 1}
        two_points = SimplicialComplex(2, [0b01, 0b10])
        assert reduced_betti_numbers(two_points, gf2) == {-1: 0, 0: 1}
        full = SimplicialComplex.full_simplex(3)
        assert reduced_betti_numbers(full, gf2) == {-1: 0, 0: 0, 1: 0, 2: 0}
        irrelevant = SimplicialComplex.irrelevant(2)
        assert reduced_betti_numbers(irrelevant, gf2) == {-1: 1}
        with pytest.raises(VoidComplexError):
            reduced_betti_numbers(SimplicialComplex.void(2), gf2)

    def test_spheres(self, gf2, gf3, gf5):
        # boundary of the k-simplex is a (k-1)-sphere
        from itertools import combinations

        for k in (2, 3, 4):
            facets = [
                sum(1 << v for v in c)
                for c in combinations(range(k + 1), k)
            ]
            sphere = SimplicialComplex(k + 1, facets)
            for field in (gf2, gf3, gf5):
                betti = reduced_betti_numbers(sphere, field)
                assert betti[k - 1] == 1
                assert all(v == 0 for d, v in betti.items() if d != k - 1)

    def test_projective_plane_field_dependence(self, gf2, gf3):
        rp2 = rp2_complex()
        assert reduced_betti_numbers(rp2, gf2) == {-1: 0, 0: 0, 1: 1, 2: 1}
        assert reduced_betti_numbers(rp2, gf3) == {-1: 0, 0: 0, 1: 0, 2: 0}

    @pytest.mark.parametrize("seed", range(20))
    @pytest.mark.parametrize("p", [2, 3])
    def test_euler_characteristic(self, seed, p):
        rng = random.Random(seed)
        complex = random_complex(rng, rng.randint(1, 7))
        betti = reduced_betti_numbers(complex, PrimeField(p))
        f = complex.f_vector()  # (f_{-1}, f_0, ...)
        euler_faces = sum(
            (-1) ** d * count for d, count in enumerate(f, start=-1)
        )
        euler_betti = sum((-1) ** d * b for d, b in betti.items())
        assert euler_betti == euler_faces

    @pytest.mark.parametrize("seed", range(12))
    def test_cone_acyclicity(self, seed):
        rng = random.Random(700 + seed)
        n = rng.randint(1, 6)
        base = random_complex(rng, n)
        apex = 1 << n
        cone = SimplicialComplex(n + 1, [f | apex for f in base.facets])
        for p in (2, 3):
            betti = reduced_betti_numbers(cone, PrimeField(p))
            assert all(v == 0 for v in betti.values())


def _visits(monkeypatch, complexes):
    """Every face the walk visits on ``complexes``, in visit order."""
    enumerate_closed = homology._closed_faces
    visited = []

    def counted(facets):
        for face, fac in enumerate_closed(facets):
            visited.append(face)
            yield face, fac

    monkeypatch.setattr(homology, "_closed_faces", counted)
    for complex in complexes:
        _link_walk(complex, PrimeField(2))
    return visited


def _sphere(k):
    """Boundary of the k-simplex, a (k-1)-sphere."""
    return SimplicialComplex(
        k + 1, [sum(1 << v for v in c) for c in combinations(range(k + 1), k)]
    )


def _collapse_cases():
    rng = random.Random(2024)
    cases = [random_complex(rng, rng.randint(1, 8)) for _ in range(20)]
    cases += [
        random_ideal(rng, rng.randint(2, 8)).stanley_reisner_complex()
        for _ in range(40)
    ]
    cases += [_sphere(k) for k in (2, 3, 4)]
    cases += [*rp2_cone_and_suspension(), bridged_triangles()]
    return cases


class TestCore:
    @pytest.mark.parametrize("p", [2, 3, 5])
    def test_keeps_reduced_betti_numbers(self, p):
        field = PrimeField(p)
        for complex in _collapse_cases():
            betti = reduced_betti_numbers(complex, field)
            core = _core(list(complex.facets))
            kept = reduced_betti_numbers(SimplicialComplex(complex.n, core), field)
            assert {d: b for d, b in betti.items() if b} == {
                d: b for d, b in kept.items() if b
            }

    def test_core_is_a_full_subcomplex_without_dominated_vertex(self):
        for complex in _collapse_cases():
            core = _core(list(complex.facets))
            kept = reduce(or_, core)
            for v in bits(kept):
                star = [f for f in core if f >> v & 1]
                assert reduce(and_, star) == 1 << v
            assert SimplicialComplex(complex.n, core).facets == tuple(
                sorted(core, key=sort_key)
            )
            faces = brute_faces(complex.facets)
            assert brute_faces(core) == {
                f for f in faces if f & ~kept == 0
            }

    def test_collapsible_complexes_shrink_to_a_point(self):
        cone = SimplicialComplex(7, [f | 1 << 6 for f in rp2_complex().facets])
        for facets in ([0b111], list(cone.facets)):
            core = _core(facets)
            assert len(core) == 1 and core[0].bit_count() == 1
        assert _core([0]) == [0]


class TestCohenMacaulay:
    def test_examples(self, gf2, gf3):
        assert is_cohen_macaulay(SimplicialComplex.full_simplex(3), gf2)
        two_edges = SimplicialComplex(4, masks({0, 2}, {1, 3}))
        assert not is_cohen_macaulay(two_edges, gf2)
        rp2 = rp2_complex()
        assert not is_cohen_macaulay(rp2, gf2)
        assert is_cohen_macaulay(rp2, gf3)
        assert is_cohen_macaulay(SimplicialComplex.irrelevant(3), gf2)
        with pytest.raises(VoidComplexError):
            is_cohen_macaulay(SimplicialComplex.void(1), gf2)

    @pytest.mark.parametrize(
        "complex",
        [
            SimplicialComplex.irrelevant(3),
            SimplicialComplex.full_simplex(3),
            SimplicialComplex(1, [0b1]),
            SimplicialComplex(3, [0b010]),
            SimplicialComplex(2, [0b01, 0b10]),
        ],
        ids=["irrelevant", "full-simplex", "one-vertex", "one-of-three",
             "two-points"],
    )
    def test_walk_edge_cases(self, complex, gf2, gf3):
        for field in (gf2, gf3):
            assert _link_walk(complex, field) == (
                reference_depth(complex, field),
                reference_is_scm(complex, field),
            )
            assert is_cohen_macaulay(complex, field) == reference_is_cm(
                complex, field
            )

    def test_walk_on_void_complex(self, gf2):
        assert _link_walk(SimplicialComplex.void(4), gf2) == (4, True)

    @pytest.mark.parametrize("seed", range(16))
    def test_walk_visits_exactly_closed_faces(self, seed, monkeypatch):
        """The walk visits each closed face F = ∩{facets ⊇ F} once and no
        other face, on Stanley-Reisner complexes of random ideals.  Odd seeds
        cone the complex over extra vertices, so the root, the intersection
        of all facets, is nonempty."""
        rng = random.Random(1300 + seed)
        n = rng.randint(2, 5 if seed % 2 else 7)
        complex = random_ideal(rng, n).stanley_reisner_complex()
        if seed % 2:
            apex = sum(1 << v for v in range(n, rng.randint(n + 1, 7)))
            n = apex.bit_length()
            complex = SimplicialComplex(n, [f | apex for f in complex.facets])
        visited = _visits(monkeypatch, [complex])
        closed = {
            face
            for face in brute_faces(complex.facets)
            if reduce(and_, (f for f in complex.facets if face & ~f == 0))
            == face
        }
        assert sorted(visited) == sorted(closed)

    def test_walk_visit_count_on_trees(self, monkeypatch):
        """Deterministic guard against a walk over all faces: the three
        20-vertex trees at seed 1 have 4,271 closed faces (86,076 faces)."""
        ideals = generate(FamilySpec("tree", 20, seed=1, count=3))
        complexes = [ideal.stanley_reisner_complex() for ideal in ideals]
        assert len(_visits(monkeypatch, complexes)) == 4271

    @pytest.mark.parametrize("p", [2, 3])
    def test_walk_takes_ranks_once_per_relabelled_core(self, p, monkeypatch):
        """The walk runs ``_core`` once per distinct facet list and takes
        ranks once per distinct core up to order-keeping relabelling, on
        two vertex-transitive complexes.  On the independence complex of
        C9, 29 cores reach the rank kernel: 20 distinct, 5 up to
        relabelling.  On RP^2, 22 cores: 22 distinct, 8 up to relabelling,
        but only 3 distinct lists of facet sizes."""
        field = PrimeField(p)
        c9 = edge_ideal(cycle_graph(9))
        rp2 = rp2_complex()
        # cycles are sequentially CM only for 3 and 5 vertices
        c9_expected = (9 - pd_oracle(c9, field), False)
        rp2_expected = (reference_depth(rp2, field), reference_is_scm(rp2, field))
        cores = count_calls(monkeypatch, homology, "_core")
        ranks = count_calls(monkeypatch, homology, "_betti_of_faces")
        assert _link_walk(c9.stanley_reisner_complex(), field) == c9_expected
        assert (len(cores), len(ranks)) == (39, 5)
        del cores[:], ranks[:]
        assert _link_walk(rp2, field) == rp2_expected
        assert (len(cores), len(ranks)) == (23, 8)

    def test_cm_implies_pure(self, gf2):
        impure = SimplicialComplex(4, masks({0, 1, 2}, {2, 3}))
        assert not is_cohen_macaulay(impure, gf2)

    @pytest.mark.parametrize("seed", range(30))
    @pytest.mark.parametrize("p", [2, 3])
    def test_against_shortcut_free_reference(self, seed, p):
        """The production test skips impure complexes and cone links; the
        reference never does.  They must agree on arbitrary complexes."""
        rng = random.Random(seed)
        complex = random_complex(rng, rng.randint(1, 6))
        field = PrimeField(p)
        assert is_cohen_macaulay(complex, field) == reference_is_cm(
            complex, field
        )

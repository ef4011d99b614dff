import random
import subprocess
import sys
from pathlib import Path

import pytest
from sympy import GF, Matrix
from sympy.polys.matrices import DomainMatrix

import monideal
from monideal import (
    PrimeField,
    SimplicialComplex,
    VoidComplexError,
    boundary_matrix,
    is_cohen_macaulay,
    rank_mod_p,
    reduced_betti_numbers,
)
from conftest import masks, random_complex, reference_is_cm, rp2_complex


def sympy_rank(matrix, p):
    m = Matrix([list(map(int, row)) for row in matrix])
    return DomainMatrix.from_Matrix(m).convert_to(GF(p)).rank()


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
        assert rank_mod_p([[1, 0], [0, 1]], PrimeField(2)) == 2
        assert rank_mod_p([[1, 1], [1, 1]], PrimeField(2)) == 1
        # hollow triangle vertex-edge boundary over GF(3)
        h = SimplicialComplex(3, masks({0, 1}, {0, 2}, {1, 2}))
        b1 = boundary_matrix(h, 1, PrimeField(3))
        assert rank_mod_p(b1, PrimeField(3)) == 2

    def test_empty(self):
        assert rank_mod_p([], PrimeField(5)) == 0
        assert rank_mod_p([[]], PrimeField(5)) == 0

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
        assert rank_mod_p(matrix, PrimeField(p)) == sympy_rank(matrix, p)

    @pytest.mark.parametrize("seed", range(10))
    def test_permutation_invariance(self, seed):
        rng = random.Random(500 + seed)
        p = rng.choice([2, 3, 5])
        rows = rng.randint(2, 10)
        cols = rng.randint(2, 10)
        matrix = [
            [rng.randrange(p) for _ in range(cols)] for _ in range(rows)
        ]
        base = rank_mod_p(matrix, PrimeField(p))
        shuffled = matrix[:]
        rng.shuffle(shuffled)
        transposed_cols = list(range(cols))
        rng.shuffle(transposed_cols)
        permuted = [[row[j] for j in transposed_cols] for row in shuffled]
        assert rank_mod_p(permuted, PrimeField(p)) == base

    @pytest.mark.parametrize("p", [3, 5, 7])
    def test_large_matrix(self, p):
        rng = random.Random(42)
        matrix = [[rng.randrange(p) for _ in range(40)] for _ in range(40)]
        assert rank_mod_p(matrix, PrimeField(p)) == sympy_rank(matrix, p)


class TestBoundary:
    @pytest.mark.parametrize("seed", range(10))
    @pytest.mark.parametrize("p", [2, 3, 5])
    def test_boundary_squares_to_zero(self, seed, p):
        rng = random.Random(seed)
        complex = random_complex(rng, rng.randint(2, 7))
        field = PrimeField(p)
        for i in range(1, complex.dim + 1):
            lower = Matrix(boundary_matrix(complex, i - 1, field))
            upper = Matrix(boundary_matrix(complex, i, field))
            assert all(x % p == 0 for x in lower * upper)

    def test_augmentation_row(self):
        c = SimplicialComplex(3, masks({0, 1, 2}))
        b0 = boundary_matrix(c, 0, PrimeField(2))
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


def test_chain_check_raises_under_optimize():
    """The chain self-check raises an error instead of asserting, so it still
    fires under ``python -O``: with every boundary sign forced to +1, the
    full 2-simplex at p = 3 must fail it, and count no check."""
    src = str(Path(monideal.__file__).parents[1])
    code = f"""
import sys
sys.path.insert(0, {src!r})
from monideal import PrimeField, SimplicialComplex, homology
from monideal.errors import MonidealError

signed = homology._boundary_columns
homology._boundary_columns = lambda cols, rows, p: [
    dict.fromkeys(column, 1) for column in signed(cols, rows, p)
]
homology.VERIFY_CHAIN_COMPLEX = True
try:
    homology.reduced_betti_numbers(SimplicialComplex.full_simplex(3), PrimeField(3))
    print(sys.flags.optimize, "returned", homology.CHAIN_CHECKS)
except MonidealError as exc:
    print(sys.flags.optimize, "raised", homology.CHAIN_CHECKS, exc)
"""
    out = subprocess.run(
        [sys.executable, "-O", "-c", code], capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "1 raised 0 boundary squared != 0"


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

"""Reduced simplicial homology over GF(p), and the face-link walk that reads
depth, Cohen-Macaulayness and sequential Cohen-Macaulayness off it.

The chain complex is augmented: the empty face sits in degree -1, so the
irrelevant complex has reduced Betti number 1 there and any complex with a
vertex has 0.  Ranks come from sparse elimination, since an i-face's boundary
has only i + 1 nonzero entries: one kernel for p = 2 on bit-packed rows, one
for odd p on dict rows.  Each keeps its pivots in a dict keyed by the pivot's
leading column, so reducing a row costs one lookup per step.  Coefficient
fields are prime fields only; field dependence of Cohen-Macaulayness is a
feature under test, not a bug.

One walk over the faces and their links (``_link_walk``) is the production
route to depth, CM and SCM; the paper's skeleton criteria are its test
reference.
"""
from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass
from functools import reduce
from operator import and_

from .bitsets import bits
from .complexes import SimplicialComplex
from .errors import MonidealError, VoidComplexError


@dataclass(frozen=True)
class PrimeField:
    """GF(p) for a prime 2 <= p < 2**16."""

    p: int

    def __post_init__(self):
        p = self.p
        if not isinstance(p, int) or not 2 <= p < 2**16:
            raise ValueError(f"field order {p!r} outside [2, 2^16)")
        if any(p % q == 0 for q in range(2, int(p**0.5) + 1)):
            raise ValueError(f"{p} is not prime")


GF2 = PrimeField(2)

# When enabled, every Betti computation also checks that consecutive
# boundary maps compose to zero and that the alternating Betti sum matches
# the alternating face count (reduced Euler characteristic), raising
# MonidealError otherwise.  Off by default; the acceptance suite turns it on.
VERIFY_CHAIN_COMPLEX = False
CHAIN_CHECKS = 0


def _rank_gf2(rows: Iterable[int]) -> int:
    """Rank of a GF(2) matrix whose rows are bitmask ints.

    Pivots are stored under their lowest set bit.  XOR with the pivot found
    there clears that bit of the row and sets none below it, so each step
    moves the row's lowest bit up until the row is zero or opens a new pivot.
    """
    pivots: dict[int, int] = {}
    for row in rows:
        while row:
            low = row & -row
            piv = pivots.get(low)
            if piv is None:
                pivots[low] = row
                break
            row ^= piv
    return len(pivots)


def _rank_modp(rows: Iterable[dict[int, int]], p: int) -> int:
    """Rank over GF(p) of a matrix given as sparse rows ``{column: entry}``.

    Entries may be any ints; they are reduced mod p here.  Each pivot is
    stored under its smallest column, scaled so that entry is 1, and without
    that entry: subtracting f times the stored rest from a row whose smallest
    column is c, after dropping the row's entry f there, eliminates column c.
    """
    pivots: dict[int, dict[int, int]] = {}
    for row in rows:
        row = {c: x % p for c, x in row.items() if x % p}
        while row:
            c = min(row)
            f = row.pop(c)
            rest = pivots.get(c)
            if rest is None:
                inv = pow(f, p - 2, p)
                pivots[c] = {k: x * inv % p for k, x in row.items()}
                break
            for k, x in rest.items():
                y = (row.get(k, 0) - f * x) % p
                if y:
                    row[k] = y
                else:
                    del row[k]
    return len(pivots)


def rank_mod_p(matrix, field: PrimeField) -> int:
    """Rank over GF(p) of a dense matrix (any sequence of rows of ints)."""
    p = field.p
    if p == 2:
        return _rank_gf2(
            sum(1 << j for j, x in enumerate(r) if int(x) % 2) for r in matrix
        )
    return _rank_modp(({j: int(x) for j, x in enumerate(r)} for r in matrix), p)


def _boundary_columns(
    cols: list[int], rows: list[int], p: int
) -> list[dict[int, int]]:
    """The boundary map from ``cols`` faces to ``rows`` faces, by column.

    Column j is ``{row index: entry}``: dropping the k-th smallest vertex of
    face ``cols[j]`` gives (-1)^k, reduced mod p.
    """
    index = {f: k for k, f in enumerate(rows)}
    return [
        {
            index[face ^ (1 << v)]: p - 1 if k % 2 else 1
            for k, v in enumerate(bits(face))
        }
        for face in cols
    ]


def boundary_matrix(
    complex: SimplicialComplex, i: int, field: PrimeField
) -> list[list[int]]:
    """The i-th boundary map mod p, as a list of rows.

    Rows are the (i-1)-faces, columns the i-faces, both in (size, members)
    order; the entry for dropping vertex v from face F is (-1)^(position of v
    in sorted F), reduced mod p.  i = 0 maps vertices to the empty face.
    """
    by_dim = complex.faces_by_dim()
    if not by_dim:
        raise VoidComplexError("void complex has no boundary maps")
    if not 0 <= i <= complex.dim:
        raise ValueError(f"boundary index {i} outside [0, dim]")
    rows, cols = by_dim[i - 1], by_dim[i]
    matrix = [[0] * len(cols) for _ in rows]
    for j, column in enumerate(_boundary_columns(cols, rows, field.p)):
        for k, x in column.items():
            matrix[k][j] = x
    return matrix


def _boundary_rank(cols: list[int], rows: list[int], p: int) -> int:
    """Rank of the boundary map sending ``cols`` faces into ``rows`` faces.

    Works on the transpose (one row per column face); rank is the same.  At
    p = 2 each row is packed straight from the face bits, which is cheaper
    than building the dict columns first.
    """
    if not cols or not rows:
        return 0
    if p == 2:
        index = {f: k for k, f in enumerate(rows)}
        packed = []
        for face in cols:
            r = 0
            for v in bits(face):
                r |= 1 << index[face ^ (1 << v)]
            packed.append(r)
        return _rank_gf2(packed)
    return _rank_modp(_boundary_columns(cols, rows, p), p)


def reduced_betti_numbers(
    complex: SimplicialComplex, field: PrimeField
) -> dict[int, int]:
    """Reduced Betti numbers over GF(p), degrees -1 through dim."""
    by_dim = complex.faces_by_dim()
    if not by_dim:
        raise VoidComplexError("void complex has no homology")
    top = complex.dim
    p = field.p
    # ranks[i] = rank of the boundary map C_i -> C_{i-1}
    ranks = {top + 1: 0}
    for i in range(0, top + 1):
        ranks[i] = _boundary_rank(by_dim[i], by_dim[i - 1], p)
    betti = {-1: 1 - ranks.get(0, 0)}
    for i in range(0, top + 1):
        betti[i] = len(by_dim[i]) - ranks[i] - ranks[i + 1]
    if VERIFY_CHAIN_COMPLEX:
        _verify_chain(by_dim, betti, p)
    return betti


def _verify_chain(by_dim: dict[int, list[int]], betti: dict[int, int], p: int):
    global CHAIN_CHECKS
    top = max(by_dim)
    columns = {
        i: _boundary_columns(by_dim[i], by_dim[i - 1], p)
        for i in range(0, top + 1)
    }
    for i in range(1, top + 1):
        lower = columns[i - 1]
        for column in columns[i]:
            image: dict[int, int] = {}
            for k, x in column.items():
                for r, y in lower[k].items():
                    image[r] = image.get(r, 0) + x * y
            if any(v % p for v in image.values()):
                raise MonidealError("boundary squared != 0")
    euler_faces = sum(
        (-1 if d % 2 else 1) * len(fs) for d, fs in by_dim.items()
    )
    euler_betti = sum((-1 if d % 2 else 1) * b for d, b in betti.items())
    if euler_betti != euler_faces:
        raise MonidealError("Euler characteristic mismatch")
    CHAIN_CHECKS += 1


def _lowest_homology(complex: SimplicialComplex, field: PrimeField) -> int:
    """Smallest j with H̃_j(complex) != 0, or n if the complex is acyclic.

    A cone (some vertex lies in every facet) is acyclic and needs no ranks.
    """
    if reduce(and_, complex.facets):
        return complex.n
    betti = reduced_betti_numbers(complex, field)
    return min((j for j, b in betti.items() if b), default=complex.n)


def _link_walk(complex: SimplicialComplex, field: PrimeField) -> tuple[int, bool]:
    """(depth of k[Δ], whether Δ is sequentially CM), from one face walk.

    Each face F is visited once and its link built once.  Hochster's formula
    for local cohomology gives depth = min over F of |F| + 1 +
    min{j : H̃_j(lk F) != 0}; a facet's link is the irrelevant complex, with
    H̃_{-1} != 0, so it gives |F|.  Duval's pure-skeleton criterion, restated
    on links, gives SCM: for every F and every facet dimension d of lk F, the
    subcomplex generated by the facets of dimension >= d has H̃_j = 0 for
    j < d.  For the smallest d that subcomplex is lk F itself.
    """
    depth, scm = complex.n, True
    for face in complex.faces():
        link = complex.link(face)
        low = -1 if link.is_irrelevant else _lowest_homology(link, field)
        depth = min(depth, face.bit_count() + 1 + low)
        dims = sorted({f.bit_count() - 1 for f in link.facets})
        scm = scm and low >= dims[0] and all(
            _lowest_homology(SimplicialComplex(
                link.n, (f for f in link.facets if f.bit_count() > d)
            ), field) >= d
            for d in dims[1:]
        )
    return depth, scm


def is_cohen_macaulay(complex: SimplicialComplex, field: PrimeField) -> bool:
    """Reisner's criterion over GF(p), read off the face-link walk: Δ is CM
    iff it is pure and depth k[Δ] = dim Δ + 1."""
    return complex.is_pure and _link_walk(complex, field)[0] == complex.dim + 1

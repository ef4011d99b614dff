"""Reduced simplicial homology over GF(p), and the face-link walk that reads
depth, Cohen-Macaulayness and sequential Cohen-Macaulayness off it.

The chain complex is augmented: the empty face sits in degree -1, so the
irrelevant complex has reduced Betti number 1 there and any complex with a
vertex has 0.  Ranks come from sparse elimination, since an i-face's boundary
has only i + 1 nonzero entries: one kernel for p = 2 on bit-packed rows, one
for odd p on dict rows.  Each keeps its pivots in a dict keyed by the pivot's
largest column, so reducing a row costs one lookup per step.  Faces come in
increasing int order, which lists every face after its own faces; with that
order, eliminating from the largest column (as the standard persistent
homology reduction does) fills in far less than from the smallest.
Coefficient fields are prime fields only; field dependence of
Cohen-Macaulayness is a feature under test, not a bug.  Nothing here checks
itself at run time: the tests compare the ranks with sympy's and the walk
with the skeleton references and the Betti oracle.

One walk over the closed faces of a complex and their links
(``_link_walk``) is the production route to depth, CM and SCM; the paper's
skeleton criteria are its test reference.  Any other face has a cone for a
link and adds nothing.  Each link is shrunk to its strong-collapse core
(``_core``) before its ranks are taken, which keeps every reduced Betti
number.
"""
from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass
from functools import reduce
from operator import and_, or_

from .bitsets import bits
from .complexes import SimplicialComplex, _faces_by_dim
from .errors import VoidComplexError


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


def _rank_gf2(rows: Iterable[int]) -> int:
    """Rank of a GF(2) matrix whose rows are bitmask ints.

    Pivots are stored under their highest set bit (as its bit length).  XOR
    with the pivot found there clears that bit of the row and sets none above
    it, so each step moves the row's highest bit down until the row is zero
    or opens a new pivot.
    """
    pivots: dict[int, int] = {}
    for row in rows:
        while row:
            top = row.bit_length()
            piv = pivots.get(top)
            if piv is None:
                pivots[top] = row
                break
            row ^= piv
    return len(pivots)


def _rank_modp(rows: Iterable[dict[int, int]], p: int) -> int:
    """Rank over GF(p) of a matrix given as sparse rows ``{column: entry}``.

    Entries may be any ints; they are reduced mod p here.  Each pivot is
    stored under its largest column, scaled so that entry is 1, and without
    that entry: subtracting f times the stored rest from a row whose largest
    column is c, after dropping the row's entry f there, eliminates column c.
    """
    pivots: dict[int, dict[int, int]] = {}
    for row in rows:
        row = {c: x % p for c, x in row.items() if x % p}
        while row:
            c = max(row)
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
            r, rest = 0, face
            while rest:
                low = rest & -rest
                r |= 1 << index[face ^ low]
                rest ^= low
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
    return _betti_of_faces(by_dim, field.p)


def _betti_of_faces(by_dim: dict[int, list[int]], p: int) -> dict[int, int]:
    """Reduced Betti numbers over GF(p) of the complex whose faces are
    ``by_dim``: nonempty groups for dimensions -1 through the top, each in
    increasing int order, as ``faces_by_dim`` lists them."""
    top = max(by_dim)
    # ranks[i] = rank of the boundary map C_i -> C_{i-1}
    ranks = {top + 1: 0}
    for i in range(0, top + 1):
        ranks[i] = _boundary_rank(by_dim[i], by_dim[i - 1], p)
    betti = {-1: 1 - ranks.get(0, 0)}
    for i in range(0, top + 1):
        betti[i] = len(by_dim[i]) - ranks[i] - ranks[i + 1]
    return betti


def _closed_faces(facets: tuple[int, ...]):
    """Yield ``(P, fac)`` once for every closed face P of the nonvoid complex
    with these facets, where ``fac`` lists the facets containing P.

    P is closed when it is the intersection of the facets containing it.
    The root is the intersection of all facets (nonempty iff the complex is
    a cone).  Prefix-preserving closure extension (Uno, Asai, Uchida and
    Arimura, LCM ver. 2, 2004) reaches every other closed face exactly once:
    from P with start index s, each vertex e >= s of ∪fac ∖ P gives
    Q = ∩{f in fac : e in f}, which is a child, with start index e + 1, iff
    Q adds no vertex below e.
    """
    stack = [(reduce(and_, facets), list(facets), 0)]
    while stack:
        face, fac, start = stack.pop()
        yield face, fac
        for e in bits((reduce(or_, fac) & ~face) >> start << start):
            bit = 1 << e
            sub = [f for f in fac if f & bit]
            closure = reduce(and_, sub)
            if (closure ^ face) & (bit - 1) == 0:
                stack.append((closure, sub, e + 1))


def _core(facets: list[int]) -> list[int]:
    """Facets of a strong-collapse core of the complex with these facets.

    A vertex v is dominated when some other vertex lies in every facet
    containing v; deleting it keeps the homotopy type (Barmak and Minian,
    Strong homotopy types, nerves and collapses, 2012), so the reduced Betti
    numbers do not change over any field.  Deletion repeats until no vertex
    is dominated.  Removing v can only make the facets that contained v
    non-maximal, and only under a facet that did not, so just those are
    checked; the vertices of those facets are the only ones whose
    domination can change, so just they are checked again.
    """
    todo = reduce(or_, facets)
    while todo:
        bit = todo & -todo
        todo ^= bit
        star = [f for f in facets if f & bit]
        common = reduce(and_, star) ^ bit
        if not common:
            continue
        rest = [f for f in facets if not f & bit]
        # a facet holding some f ∖ v holds the vertices common to the star
        over = [h for h in rest if h & common == common]
        facets = rest + [
            g for g in (f ^ bit for f in star)
            if not any(g & ~h == 0 for h in over)
        ]
        todo |= reduce(or_, star) ^ bit
    return facets


def _link_walk(complex: SimplicialComplex, field: PrimeField) -> tuple[int, bool]:
    """(depth of k[Δ], whether Δ is sequentially CM), from one walk over
    the closed faces of Δ (``_closed_faces``).

    Hochster's formula for local cohomology gives depth = min over faces F
    of |F| + 1 + min{j : H̃_j(lk F) != 0}; a facet's link is the irrelevant
    complex, with H̃_{-1} != 0, so it gives |F|.  Duval's pure-skeleton
    criterion, restated on links, gives SCM: for every F and every facet
    dimension d of lk F, the subcomplex generated by the facets of dimension
    >= d has H̃_j = 0 for j < d.  For the smallest d that subcomplex is lk F
    itself.  Only closed faces matter: if F is not closed, a vertex outside
    F lies in every facet containing F, so lk F and each of those
    subcomplexes is a cone over it and has no reduced homology.  The link of
    a closed P is the facets containing P with P removed.  Each complex is
    shrunk to its strong-collapse core (``_core``) before any ranks; a core
    with one facet is a point, or the irrelevant complex if that facet is
    empty.  The void complex has no faces: (n, True).
    """
    n, p = complex.n, field.p
    depth, scm = n, True

    def lowest(facets: list[int]) -> int:
        # smallest j with H̃_j != 0, or n if the complex is acyclic
        core = _core(facets)
        if len(core) == 1:
            return -1 if core[0] == 0 else n
        betti = _betti_of_faces(_faces_by_dim(core), p)
        return min((j for j, b in betti.items() if b), default=n)

    if complex.is_void:
        return n, True
    for face, fac in _closed_faces(complex.facets):
        link = [f ^ face for f in fac]
        low = lowest(link)
        depth = min(depth, face.bit_count() + 1 + low)
        dims = sorted({f.bit_count() - 1 for f in link})
        scm = scm and low >= dims[0] and all(
            lowest([f for f in link if f.bit_count() > d]) >= d
            for d in dims[1:]
        )
    return depth, scm


def is_cohen_macaulay(complex: SimplicialComplex, field: PrimeField) -> bool:
    """Reisner's criterion over GF(p), read off the face-link walk: Δ is CM
    iff depth k[Δ] = dim Δ + 1.  Purity needs no separate test: a facet F
    gives |F| in Hochster's formula, so depth <= the smallest facet size."""
    return complex.dim + 1 == _link_walk(complex, field)[0]

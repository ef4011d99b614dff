"""Vertex subsets as integer bitmasks.

Every subset of the vertex universe {0, ..., n-1} is a Python int with bit i
set iff vertex i is in the subset.  Python ints are arbitrary width, so the
same code covers n <= 64 and beyond without a separate wide path.
"""
from __future__ import annotations

from collections.abc import Iterable


def as_mask(vertices: int | Iterable[int]) -> int:
    """Coerce an int mask or an iterable of vertex indices to a mask."""
    if isinstance(vertices, int):
        if vertices < 0:
            raise ValueError("negative bitmask")
        return vertices
    mask = 0
    for v in vertices:
        if v < 0:
            raise ValueError(f"negative vertex index {v}")
        mask |= 1 << v
    return mask


def bits(mask: int):
    """Yield the set bit positions of ``mask`` in increasing order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def members(mask: int) -> tuple[int, ...]:
    return tuple(bits(mask))


def submasks(mask: int):
    """Yield every submask of ``mask``, including 0 and mask itself."""
    sub = mask
    while True:
        yield sub
        if sub == 0:
            return
        sub = (sub - 1) & mask


_FLIP = str.maketrans("01", "10")


def sort_key(mask: int) -> tuple:
    """Deterministic order: by cardinality, then lexicographic on members.

    For equal cardinality the lowest bit where two masks differ decides the
    members order (the mask holding it comes first), so the key compares the
    bit strings, lowest bit first and with 0 and 1 swapped, instead of
    building a members tuple.
    """
    return (mask.bit_count(), bin(mask)[:1:-1].translate(_FLIP))


def antichain_maximal(masks: Iterable[int]) -> tuple[int, ...]:
    """Inclusion-maximal elements of a family, deduplicated and sorted."""
    unique = sorted(set(masks), key=lambda m: -m.bit_count())
    out: list[int] = []
    for m in unique:
        if not any(m & keep == m for keep in out):
            out.append(m)
    return tuple(sorted(out, key=sort_key))


def antichain_minimal(masks: Iterable[int]) -> tuple[int, ...]:
    """Inclusion-minimal elements of a family, deduplicated and sorted."""
    unique = sorted(set(masks), key=lambda m: m.bit_count())
    out: list[int] = []
    for m in unique:
        if not any(m & keep == keep for keep in out):
            out.append(m)
    return tuple(sorted(out, key=sort_key))


def minimal_transversals(edges: Iterable[int], n: int) -> tuple[int, ...]:
    """All inclusion-minimal vertex sets meeting every edge mask.

    MMCS (Murakami and Uno, Discrete Appl. Math. 170, 2014).  A chosen set S
    is grown one vertex at a time.  Each chosen vertex u keeps its critical
    edges ``crit[u]``: the edges that u alone covers within S.  S is a minimal
    transversal iff it meets every edge and every ``crit[u]`` is nonempty,
    and adding vertices only shrinks critical sets, so a branch stops as soon
    as one of them empties and every leaf is a minimal transversal; there is
    no minimality post-filter.  Edges are numbered and edge sets are masks of
    edge indices (``occ[v]``: the edges containing v, ``uncov``: the edges S
    misses).  Each node branches on the uncovered edge with the fewest
    candidate vertices; its candidates leave ``cand`` and each comes back
    after its own branch, so branch v excludes the candidates after v and each
    minimal transversal is reached once.

    An empty edge has no transversal; with no edges the empty set is the
    unique (degenerate) transversal.
    """
    edge_list = sorted(set(edges), key=sort_key)
    if any(e == 0 for e in edge_list):
        return ()
    if not edge_list:
        return (0,)

    universe = 0
    for e in edge_list:
        universe |= e
    occ = [0] * universe.bit_length()
    for i, e in enumerate(edge_list):
        for v in bits(e):
            occ[v] |= 1 << i
    found: list[int] = []
    crit: list[int] = []  # critical edge masks of the chosen vertices

    def descend(chosen: int, cand: int, uncov: int):
        if not uncov:
            found.append(chosen)
            return
        branch, fewest = 0, universe.bit_count() + 1
        for i in bits(uncov):
            options = edge_list[i] & cand
            count = options.bit_count()
            if count < fewest:
                branch, fewest = options, count
                if count <= 1:
                    break
        cand &= ~branch
        for v in bits(branch):
            covered = occ[v]
            saved = crit[:]
            crit[:] = [c & ~covered for c in saved]
            if 0 not in crit:
                crit.append(uncov & covered)
                descend(chosen | 1 << v, cand, uncov & ~covered)
            crit[:] = saved
            cand |= 1 << v

    descend(0, universe, (1 << len(edge_list)) - 1)
    return tuple(sorted(found, key=sort_key))

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


def sort_key(mask: int) -> tuple:
    """Deterministic order: by cardinality, then lexicographic on members."""
    return (mask.bit_count(), members(mask))


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

    Branch and bound: pick an uncovered edge, branch on which of its vertices
    joins the transversal; vertices already branched over at this edge are
    excluded from deeper levels so each minimal transversal is reached once.
    Leaves are filtered for inclusion-minimality (a chosen vertex may turn out
    redundant once later edges force its neighbors in): a transversal is
    minimal iff each of its vertices is the only one it has in some edge.

    An empty edge has no transversal; with no edges the empty set is the
    unique (degenerate) transversal.
    """
    edge_list = sorted(set(edges), key=sort_key)
    if any(e == 0 for e in edge_list):
        return ()
    if not edge_list:
        return (0,)

    found: list[int] = []

    def descend(chosen: int, excluded: int, remaining: tuple[int, ...]):
        if not remaining:
            found.append(chosen)
            return
        # branch on the smallest usable edge
        edge = min(remaining, key=lambda e: (e & ~excluded).bit_count())
        usable = edge & ~excluded
        if usable == 0:
            return
        veto = excluded
        for v in bits(usable):
            bit = 1 << v
            rest = tuple(e for e in remaining if not e & bit)
            descend(chosen | bit, veto, rest)
            veto |= bit

    descend(0, 0, tuple(edge_list))

    minimal = []
    for cand in found:
        # minimal iff every chosen vertex is the sole cover of some edge:
        # collect the vertices that are, in one pass over the edges
        private = 0
        for e in edge_list:
            hit = e & cand
            if hit & (hit - 1) == 0:
                private |= hit
        if private == cand:
            minimal.append(cand)
    return tuple(sorted(set(minimal), key=sort_key))

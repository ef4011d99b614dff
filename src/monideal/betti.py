"""Brute-force multigraded Betti numbers via restriction homology.

This is the independent oracle: it never touches the face-link walk.
For i >= 1 the Betti number in square-free multidegree sigma is the reduced
homology of the Stanley-Reisner complex restricted to sigma, in degree
|sigma| - i - 1.  It can be nonzero only where sigma is the union of the
generators it contains, that is on the lcm lattice (Gasharov, Peeva and
Welker 1999): any other sigma has a vertex v in no generator inside it, so
F ∪ {v} is a face for every face F of the restriction, the restriction is a
cone over v and its reduced homology vanishes.  So the oracle builds the
lattice directly, as the unions of generators, and visits only its members.
Homology is taken once per distinct restriction: the restriction to sigma is
the Stanley-Reisner complex of the generators inside sigma on sigma's
vertices, so sigmas whose generators agree after renaming sigma's vertices
to 0..|sigma|-1 in order have isomorphic restrictions.  The memo lives for
one table.  The faces of the Stanley-Reisner complex are listed straight
from the generators, so the oracle enumerates no covers: it needs only the
generators and the rank kernel.  The whole point is trust, not speed, hence
the hard cap on n.
"""
from __future__ import annotations

from dataclasses import dataclass, field as dataclass_field

from .bitsets import bits
from .complexes import SquareFreeIdeal
from .errors import TooLargeError
from .homology import PrimeField, _betti_of_faces

DEFAULT_CAP = 20


@dataclass(frozen=True)
class BettiTable:
    """Multigraded Betti numbers of one quotient ring over GF(p).

    ``entries`` maps (homological degree i, vertex-subset mask) to the Betti
    number; only nonzero entries are stored, and beta[0, empty] = 1 is always
    present.
    """

    n: int
    field_p: int
    entries: dict = dataclass_field(repr=False)

    @property
    def pd(self) -> int:
        return max(i for i, _ in self.entries)

    def beta(self, i: int, sigma: int) -> int:
        return self.entries.get((i, sigma), 0)

    def total(self, i: int) -> int:
        """Coarse Betti number: sum over all multidegrees."""
        return sum(v for (j, _), v in self.entries.items() if j == i)


def hochster_betti_table(
    ideal: SquareFreeIdeal, field: PrimeField, cap: int = DEFAULT_CAP
) -> BettiTable:
    """Complete Betti table: the lcm lattice in increasing int order, with
    reduced homology taken once per restriction that is distinct up to
    order-keeping relabelling.  Refuses n above ``cap``."""
    n, gens = ideal.n, ideal.gens
    if n > cap:
        raise TooLargeError(f"oracle cap is n <= {cap}, got n = {n}")
    faces = _sr_faces_by_dim(n, gens)
    lattice: set[int] = set()
    for g in gens:
        lattice |= {s | g for s in lattice}
        lattice.add(g)
    # (1 << v) - 1 for each vertex v of each generator: the vertices of
    # sigma below v number (sigma & low).bit_count()
    lows = [(g, [(1 << v) - 1 for v in bits(g)]) for g in gens]
    memo: dict[tuple[int, ...], list[tuple[int, int]]] = {}
    entries = {(0, 0): 1}
    for sigma in sorted(lattice):
        key = tuple(sorted(
            sum(1 << (sigma & low).bit_count() for low in low_masks)
            for g, low_masks in lows
            if g & ~sigma == 0
        ))
        nonzero = memo.get(key)
        if nonzero is None:
            by_dim = {}
            for d, group in faces.items():
                kept = [f for f in group if f & ~sigma == 0]
                if not kept:
                    break
                by_dim[d] = kept
            betti = _betti_of_faces(by_dim, field.p)
            nonzero = memo[key] = [(d, b) for d, b in betti.items() if b]
        size = sigma.bit_count()
        for deg, value in nonzero:
            entries[(size - deg - 1, sigma)] = value
    return BettiTable(n=n, field_p=field.p, entries=entries)


def _sr_faces_by_dim(n: int, gens: tuple[int, ...]) -> dict[int, list[int]]:
    """Faces of the Stanley-Reisner complex of ``gens``, grouped by
    dimension, each group in increasing int order.  The groups come in
    increasing dimension, because a face is listed after its own faces.

    A depth-first search adds only vertices above a face's largest one, so
    it reaches each face once.  Every generator inside F ∪ {v}, for a face
    F, contains v, so only those generators are checked.
    """
    holding = [[g for g in gens if g >> v & 1] for v in range(n)]
    found, stack = [0], [0]
    while stack:
        face = stack.pop()
        for v in range(face.bit_length(), n):
            grown = face | 1 << v
            if not any(g & ~grown == 0 for g in holding[v]):
                found.append(grown)
                stack.append(grown)
    grouped: dict[int, list[int]] = {}
    for face in sorted(found):
        grouped.setdefault(face.bit_count() - 1, []).append(face)
    return grouped


def pd_oracle(
    ideal: SquareFreeIdeal, field: PrimeField, cap: int = DEFAULT_CAP
) -> int:
    """Projective dimension read off the full Betti table."""
    return hochster_betti_table(ideal, field, cap=cap).pd


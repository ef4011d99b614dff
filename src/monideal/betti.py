"""Brute-force multigraded Betti numbers via restriction homology.

This is the independent oracle: it never touches the face-link walk.
For i >= 1 the Betti number in square-free multidegree sigma is the reduced
homology of the Stanley-Reisner complex restricted to sigma, in degree
|sigma| - i - 1, and the table is complete over all 2^n subsets.  Every
sigma is visited, but homology is computed only where sigma is the union of
the generators it contains, that is on the lcm lattice (Gasharov, Peeva and
Welker 1999).  Any other sigma has a vertex v in no generator inside it, so
F ∪ {v} is a face for every face F of the restriction: the restriction is a
cone over v and its reduced homology vanishes.  The faces of the
Stanley-Reisner complex are listed in the same sweep: sigma is a face when
no generator lies inside it, and every face inside sigma is a smaller int,
so it is listed before sigma is reached.  The oracle enumerates no covers:
it needs only the generators and the rank kernel.  The whole point is
trust, not speed, hence the hard cap on n.
"""
from __future__ import annotations

from dataclasses import dataclass, field as dataclass_field
from functools import reduce
from operator import or_

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
    """Complete Betti table from the 2^n restriction sweep."""
    n = ideal.n
    if n > cap:
        raise TooLargeError(
            f"oracle sweep needs 2^{n} restrictions, cap is n <= {cap}"
        )
    # Δ's faces met so far, by dimension, each group in increasing int order
    faces: dict[int, list[int]] = {-1: [0]}
    entries = {(0, 0): 1}
    for sigma in range(1, 1 << n):
        union = reduce(or_, (g for g in ideal.gens if g & ~sigma == 0), 0)
        if not union:
            faces.setdefault(sigma.bit_count() - 1, []).append(sigma)
            continue
        # off the lcm lattice the restriction is a cone: no homology
        if union != sigma:
            continue
        # the restriction's faces are ints below sigma, so all listed already
        by_dim = {}
        for d, group in faces.items():
            kept = [f for f in group if f & ~sigma == 0]
            if not kept:
                break
            by_dim[d] = kept
        betti = _betti_of_faces(by_dim, field.p)
        size = sigma.bit_count()
        for deg, value in betti.items():
            if value:
                entries[(size - deg - 1, sigma)] = value
    return BettiTable(n=n, field_p=field.p, entries=entries)


def pd_oracle(
    ideal: SquareFreeIdeal, field: PrimeField, cap: int = DEFAULT_CAP
) -> int:
    """Projective dimension read off the full Betti table."""
    return hochster_betti_table(ideal, field, cap=cap).pd


def depth_oracle(
    ideal: SquareFreeIdeal, field: PrimeField, cap: int = DEFAULT_CAP
) -> int:
    """n - pd, with pd taken from the brute-force table."""
    return ideal.n - pd_oracle(ideal, field, cap=cap)

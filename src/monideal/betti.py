"""Brute-force multigraded Betti numbers via restriction homology.

This is the independent oracle: it never touches the face-link walk.
For i >= 1 the Betti number in square-free multidegree sigma is the reduced
homology of the Stanley-Reisner complex restricted to sigma, in degree
|sigma| - i - 1, and the table is complete over all 2^n subsets.  Vertex
subsets that are faces restrict to full simplices and contribute nothing, so
they are skipped; everything else is swept exhaustively.  The whole point is
trust, not speed, hence the hard cap on n.
"""
from __future__ import annotations

from dataclasses import dataclass, field as dataclass_field

from .complexes import SquareFreeIdeal
from .errors import TooLargeError
from .homology import PrimeField, reduced_betti_numbers

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
    delta = ideal.stanley_reisner_complex()
    entries = {(0, 0): 1}
    for sigma in range(1, 1 << n):
        if delta.has_face(sigma):
            continue
        betti = reduced_betti_numbers(delta.restrict(sigma), field)
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

"""Minimal primes of square-free ideals and the prime data they encode.

For a square-free ideal the minimal primes are generated by exactly the
minimal vertex covers of its facet complex; heights are cover sizes.  The big
height is the largest such size, the Krull dimension of the quotient is n
minus the smallest.
"""
from __future__ import annotations

from dataclasses import dataclass

from .bitsets import minimal_transversals
from .complexes import SquareFreeIdeal


@dataclass(frozen=True)
class PrimaryDecomposition:
    """Minimal primes of a square-free ideal, as vertex-cover masks."""

    primes: tuple[int, ...]
    heights: tuple[int, ...]

    @property
    def d_min(self) -> int:
        return min(self.heights)

    @property
    def d_max(self) -> int:
        return max(self.heights)


def minimal_primes(ideal: SquareFreeIdeal) -> PrimaryDecomposition:
    """Minimal primes = minimal vertex covers of the facet complex, whose
    facets are the generators."""
    primes = minimal_transversals(ideal.gens, ideal.n)
    return PrimaryDecomposition(
        primes=primes, heights=tuple(p.bit_count() for p in primes)
    )


def big_height(ideal: SquareFreeIdeal) -> int:
    """Largest height of a minimal (= associated) prime."""
    return minimal_primes(ideal).d_max


def krull_dimension(ideal: SquareFreeIdeal) -> int:
    """dim of the quotient ring: n minus the smallest prime height."""
    return ideal.n - minimal_primes(ideal).d_min

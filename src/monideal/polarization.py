"""General monomial ideals and polarization down to the square-free engine.

A monomial ideal is stored as exponent vectors over a fixed variable list.
Polarization splits x_j^a into a product of a distinct copies x_j.1 ... x_j.a;
the result is square-free with the same projective dimension and the same
big height, so those invariants of a general ideal are computed on the
polarization.  Every source variable keeps at least one copy, which makes
polarization of an already square-free ideal a pure relabeling.
"""
from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass

from .complexes import SquareFreeIdeal, _check_universe
from .errors import ZeroOrUnitIdealError
from .homology import PrimeField


class MonomialIdeal:
    """A monomial ideal given by a minimal list of exponent vectors.

    Generators dividing another generator are dropped at construction
    (componentwise <=); zero and unit ideals are rejected.
    """

    __slots__ = ("n", "labels", "gens")

    def __init__(self, n: int, gens: Iterable[Iterable[int]], labels=None):
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "labels", _check_universe(n, labels))
        vectors = []
        for g in gens:
            vec = tuple(int(e) for e in g)
            if len(vec) != n:
                raise ValueError(f"exponent vector {vec} has length != {n}")
            if any(e < 0 for e in vec):
                raise ValueError(f"negative exponent in {vec}")
            vectors.append(vec)
        if not vectors:
            raise ZeroOrUnitIdealError("the zero ideal is not representable")
        if any(all(e == 0 for e in vec) for vec in vectors):
            raise ZeroOrUnitIdealError("the unit ideal is not representable")
        object.__setattr__(self, "gens", _minimalize(vectors))

    def __setattr__(self, name, value):
        raise AttributeError("MonomialIdeal is immutable")

    @classmethod
    def from_squarefree(cls, ideal: SquareFreeIdeal) -> "MonomialIdeal":
        gens = [
            tuple(1 if g >> j & 1 else 0 for j in range(ideal.n))
            for g in ideal.gens
        ]
        return cls(ideal.n, gens, ideal.labels)

    @property
    def is_squarefree(self) -> bool:
        return all(e <= 1 for vec in self.gens for e in vec)

    def support_radical(self) -> SquareFreeIdeal:
        """The radical: generator supports, re-minimalized."""
        masks = [
            sum(1 << j for j, e in enumerate(vec) if e) for vec in self.gens
        ]
        return SquareFreeIdeal(self.n, masks, self.labels)

    def generator_monomials(self) -> tuple[str, ...]:
        out = []
        for vec in self.gens:
            factors = []
            for label, e in zip(self.labels, vec):
                if e == 1:
                    factors.append(label)
                elif e > 1:
                    factors.append(f"{label}^{e}")
            out.append("*".join(factors))
        return tuple(out)

    def __eq__(self, other):
        return (
            isinstance(other, MonomialIdeal)
            and self.n == other.n
            and self.labels == other.labels
            and self.gens == other.gens
        )

    def __hash__(self):
        return hash((self.n, self.labels, self.gens))

    def __repr__(self):
        gens = ", ".join(self.generator_monomials())
        return f"MonomialIdeal(n={self.n}, gens=({gens}))"


def _minimalize(vectors: list[tuple[int, ...]]) -> tuple[tuple[int, ...], ...]:
    """Drop generators divisible by another generator; dedupe and sort.

    A divisor's support lies inside the multiple's, so candidates are
    rejected by support mask before any exponent is compared.
    """
    unique = sorted(set(vectors), key=lambda v: (sum(v), v))
    kept: list[tuple[tuple[int, ...], int]] = []
    for vec in unique:
        supp = sum(1 << j for j, e in enumerate(vec) if e)
        if not any(
            not other_supp & ~supp
            and all(a >= b for a, b in zip(vec, other))
            for other, other_supp in kept
        ):
            kept.append((vec, supp))
    return tuple(vec for vec, _ in kept)


@dataclass(frozen=True)
class PolarizationMap:
    """A monomial ideal together with its square-free polarization.

    ``copies[j]`` is how many target variables source variable j expands to;
    target variable order is (source index, copy index), labels "x.t" with t
    starting at 1.
    """

    source: MonomialIdeal
    target: SquareFreeIdeal
    copies: tuple[int, ...]

    def target_index(self, j: int, t: int) -> int:
        """Index in the target ring of the t-th copy (1-based) of x_j."""
        if not 1 <= t <= self.copies[j]:
            raise ValueError(f"variable {j} has no copy {t}")
        return sum(self.copies[:j]) + t - 1


def polarize(ideal: MonomialIdeal) -> PolarizationMap:
    """Split every power x^a into a distinct square-free copies.

    Each source variable expands to max(largest exponent, 1) copies, so
    unused variables stay in the ring and a square-free input comes back as
    a relabeled copy of itself.
    """
    n = ideal.n
    copies = tuple(
        max(1, max((vec[j] for vec in ideal.gens), default=0))
        for j in range(n)
    )
    offsets = [0] * n
    acc = 0
    for j in range(n):
        offsets[j] = acc
        acc += copies[j]
    labels = tuple(
        f"{ideal.labels[j]}.{t}" for j in range(n) for t in range(1, copies[j] + 1)
    )
    masks = []
    for vec in ideal.gens:
        m = 0
        for j, e in enumerate(vec):
            for t in range(e):
                m |= 1 << (offsets[j] + t)
        masks.append(m)
    target = SquareFreeIdeal(acc, masks, labels)
    return PolarizationMap(source=ideal, target=target, copies=copies)


def _square_free(ideal: MonomialIdeal) -> SquareFreeIdeal:
    """The ideal the engines see: a square-free input as it is (its support
    radical), anything else polarized, which keeps pd and the big height."""
    if ideal.is_squarefree:
        return ideal.support_radical()
    return polarize(ideal).target


def big_height_general(ideal: MonomialIdeal) -> int:
    """Largest height of an associated prime, via ``_square_free``."""
    from .covers import big_height

    return big_height(_square_free(ideal))


def pd_general(ideal: MonomialIdeal, field: PrimeField) -> int:
    """Projective dimension of the quotient, via ``_square_free``.

    A polarized ideal lives in a larger ring; the value equals the projective
    dimension over the source ring.
    """
    from .invariants import projective_dimension

    return projective_dimension(_square_free(ideal), field)

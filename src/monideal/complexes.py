"""Simplicial complexes, square-free monomial ideals, and the four
correspondences between them (facet complex/ideal, Stanley-Reisner
complex/ideal), plus skeletons, links and restrictions.

Both container classes are frozen dataclasses: every operation returns a
fresh value, and a value pickles and copies to an equal one.
A complex always carries its full vertex universe; vertices lying in no facet
are legal and matter for the ring-theoretic counts downstream.
"""
from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass

from .bitsets import (
    antichain_maximal,
    antichain_minimal,
    as_mask,
    bits,
    minimal_transversals,
    submasks,
)
from .errors import (
    FullSimplexError,
    NotAFaceError,
    OutOfRangeError,
    VoidComplexError,
    VoidOrIrrelevantError,
    ZeroOrUnitIdealError,
)

FaceLike = int | Iterable[int]


def default_labels(n: int) -> tuple[str, ...]:
    return tuple(f"x{i + 1}" for i in range(n))


def _check_universe(n: int, labels) -> tuple[str, ...]:
    if n < 0:
        raise ValueError("vertex count must be non-negative")
    if labels is None:
        return default_labels(n)
    labels = tuple(labels)
    if len(labels) != n:
        raise ValueError(f"expected {n} labels, got {len(labels)}")
    if any(not isinstance(s, str) or not s for s in labels):
        raise ValueError("labels must be nonempty strings")
    if len(set(labels)) != n:
        raise ValueError("labels must be distinct")
    return labels


def _check_range(mask: int, n: int):
    if mask >> n:
        raise ValueError(f"vertex index out of range for n={n}")


def _format_subset(mask: int, labels) -> str:
    return "{" + ",".join(labels[v] for v in bits(mask)) + "}"


def _faces_by_dim(facets: Iterable[int]) -> dict[int, list[int]]:
    """Every face under some mask of ``facets``, grouped by dimension, each
    group in increasing int order; {} for no facets."""
    faces: set[int] = set()
    for facet in facets:
        faces.update(submasks(facet))
    grouped: dict[int, list[int]] = {}
    for face in sorted(faces):
        grouped.setdefault(face.bit_count() - 1, []).append(face)
    return dict(sorted(grouped.items()))


@dataclass(frozen=True, slots=True)
class SimplicialComplex:
    """A simplicial complex given by its facet antichain.

    The void complex (no faces) and the irrelevant complex (only the empty
    face) are distinct values: ``facets == ()`` versus ``facets == (0,)``.
    Constructor input may be any family of faces; non-maximal ones are
    absorbed.
    """

    n: int
    labels: tuple[str, ...]
    facets: tuple[int, ...]

    def __init__(self, n: int, facets: Iterable[FaceLike], labels=None):
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "labels", _check_universe(n, labels))
        masks = [as_mask(f) for f in facets]
        for m in masks:
            _check_range(m, n)
        object.__setattr__(self, "facets", antichain_maximal(masks))

    @classmethod
    def void(cls, n: int, labels=None) -> "SimplicialComplex":
        return cls(n, (), labels)

    @classmethod
    def irrelevant(cls, n: int, labels=None) -> "SimplicialComplex":
        return cls(n, (0,), labels)

    @classmethod
    def full_simplex(cls, n: int, labels=None) -> "SimplicialComplex":
        return cls(n, ((1 << n) - 1,), labels)

    @property
    def is_void(self) -> bool:
        return not self.facets

    @property
    def is_irrelevant(self) -> bool:
        return self.facets == (0,)

    @property
    def dim(self) -> int:
        """Largest face dimension; the irrelevant complex has dim -1."""
        if self.is_void:
            raise VoidComplexError("the void complex has no dimension")
        return max(f.bit_count() for f in self.facets) - 1

    @property
    def is_pure(self) -> bool:
        """All facets share one dimension (vacuously true if void)."""
        counts = {f.bit_count() for f in self.facets}
        return len(counts) <= 1

    def has_face(self, face: FaceLike) -> bool:
        m = as_mask(face)
        return any(m & ~f == 0 for f in self.facets)

    def faces_by_dim(self) -> dict[int, list[int]]:
        """All faces grouped by dimension, each group in increasing int
        order; {} if void.  The order is not free: the rank kernels in
        ``homology`` fill in far less on it than on set order."""
        return _faces_by_dim(self.facets)

    def f_vector(self) -> tuple[int, ...]:
        """(f_{-1}, f_0, ..., f_dim); raises on the void complex."""
        by_dim = self.faces_by_dim()
        if not by_dim:
            raise VoidComplexError("the void complex has no f-vector")
        return tuple(len(by_dim.get(d, ())) for d in range(-1, self.dim + 1))

    def skeleton(self, i: int) -> "SimplicialComplex":
        """Subcomplex of all faces of dimension <= i.

        Facets of the result: every i-face plus every facet of dimension < i.
        """
        if self.is_void or not -1 <= i <= self.dim:
            raise OutOfRangeError(f"skeleton index {i} outside [-1, dim]")
        keep = [f for f in self.facets if f.bit_count() - 1 < i]
        keep.extend(self.faces_by_dim()[i])
        return SimplicialComplex(self.n, keep, self.labels)

    def pure_skeleton(self, i: int) -> "SimplicialComplex":
        """Subcomplex generated by exactly the i-dimensional faces."""
        if self.is_void or not -1 <= i <= self.dim:
            raise OutOfRangeError(f"pure skeleton index {i} outside [-1, dim]")
        return SimplicialComplex(self.n, self.faces_by_dim()[i], self.labels)

    def link(self, face: FaceLike) -> "SimplicialComplex":
        """Faces disjoint from ``face`` whose union with it is again a face.

        The facets containing ``face``, with ``face`` removed, are the link's
        facets.
        """
        m = as_mask(face)
        _check_range(m, self.n)
        facets = tuple(f ^ m for f in self.facets if m & ~f == 0)
        if not facets:
            raise NotAFaceError(
                f"{_format_subset(m, self.labels)} is not a face"
            )
        return SimplicialComplex(self.n, facets, self.labels)

    def restrict(self, vertices: FaceLike) -> "SimplicialComplex":
        """Induced subcomplex on a vertex subset (void stays void)."""
        w = as_mask(vertices)
        _check_range(w, self.n)
        return SimplicialComplex(self.n, (f & w for f in self.facets), self.labels)

    def facet_ideal(self) -> "SquareFreeIdeal":
        """Ideal with one generator per facet."""
        if self.is_void or self.is_irrelevant:
            raise VoidOrIrrelevantError(
                "facet ideal needs at least one nonempty facet"
            )
        return SquareFreeIdeal(self.n, self.facets, self.labels)

    def stanley_reisner_ideal(self) -> "SquareFreeIdeal":
        """Ideal generated by the minimal non-faces.

        A subset is a non-face iff it meets the complement of every facet, so
        the minimal non-faces are the minimal transversals of the facet
        complements; no sweep over all 2^n subsets is needed.
        """
        if self.is_void:
            raise ZeroOrUnitIdealError(
                "the void complex has unit Stanley-Reisner ideal"
            )
        full = (1 << self.n) - 1
        complements = [full ^ f for f in self.facets]
        if any(c == 0 for c in complements):
            raise FullSimplexError(
                "the full simplex has zero Stanley-Reisner ideal"
            )
        return SquareFreeIdeal(
            self.n, minimal_transversals(complements, self.n), self.labels
        )

    def format_faces(self, masks: Iterable[int]) -> str:
        return (
            "<" + ", ".join(_format_subset(m, self.labels) for m in masks) + ">"
        )

    def __repr__(self):
        if self.is_void:
            return f"SimplicialComplex.void({self.n})"
        return f"SimplicialComplex(n={self.n}, facets={self.format_faces(self.facets)})"


@dataclass(frozen=True, slots=True)
class SquareFreeIdeal:
    """A square-free monomial ideal stored as its minimal generator supports.

    Generators are canonicalized to the inclusion-minimal antichain.  The zero
    ideal (no generators) and the unit ideal (empty-set generator) are
    rejected: the theorems downstream presume a nonzero proper ideal.
    """

    n: int
    labels: tuple[str, ...]
    gens: tuple[int, ...]

    def __init__(self, n: int, gens: Iterable[FaceLike], labels=None):
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "labels", _check_universe(n, labels))
        masks = [as_mask(g) for g in gens]
        for m in masks:
            _check_range(m, n)
        reduced = antichain_minimal(masks)
        if not reduced:
            raise ZeroOrUnitIdealError("the zero ideal is not representable")
        if reduced[0] == 0:
            raise ZeroOrUnitIdealError("the unit ideal is not representable")
        object.__setattr__(self, "gens", reduced)

    def facet_complex(self) -> SimplicialComplex:
        """Complex whose facets are the generator supports."""
        return SimplicialComplex(self.n, self.gens, self.labels)

    def stanley_reisner_complex(self) -> SimplicialComplex:
        """Complex whose faces are the subsets containing no generator.

        Its facets are the complements of the minimal vertex covers of the
        generator hypergraph (complement-of-covers route; only the test
        references sweep all 2^n subsets).
        """
        full = (1 << self.n) - 1
        covers = minimal_transversals(self.gens, self.n)
        return SimplicialComplex(self.n, (full ^ c for c in covers), self.labels)

    def generator_monomials(self) -> tuple[str, ...]:
        return tuple(
            "*".join(self.labels[v] for v in bits(g)) for g in self.gens
        )

    def __repr__(self):
        gens = ", ".join(self.generator_monomials())
        return f"SquareFreeIdeal(n={self.n}, gens=({gens}))"

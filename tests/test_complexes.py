import copy
import pickle
import random

import pytest

from monideal import (
    FullSimplexError,
    IdealSource,
    MonomialIdeal,
    NotAFaceError,
    OutOfRangeError,
    SimplicialComplex,
    SquareFreeIdeal,
    VoidComplexError,
    VoidOrIrrelevantError,
    ZeroOrUnitIdealError,
    polarize,
)
from conftest import (
    brute_faces,
    brute_minimal_nonfaces,
    brute_sr_faces,
    masks,
    random_complex,
    random_ideal,
    subset_leq,
)


class TestConstruction:
    def test_facets_become_antichain(self):
        c = SimplicialComplex(3, masks({0}, {0, 1}, {1, 2}))
        assert c.facets == tuple(masks({0, 1}, {1, 2}))

    def test_void_and_irrelevant_distinct(self):
        void = SimplicialComplex.void(2)
        irrelevant = SimplicialComplex.irrelevant(2)
        assert void.is_void and not void.is_irrelevant
        assert irrelevant.is_irrelevant and not irrelevant.is_void
        assert void != irrelevant
        assert irrelevant.dim == -1
        with pytest.raises(VoidComplexError):
            void.dim

    def test_vertex_universe_is_kept(self):
        c = SimplicialComplex(4, masks({0, 1, 2}))
        assert c.n == 4
        assert c.labels == ("x1", "x2", "x3", "x4")

    def test_out_of_range_facet_rejected(self):
        with pytest.raises(ValueError):
            SimplicialComplex(2, masks({0, 5}))

    def test_bad_labels_rejected(self):
        with pytest.raises(ValueError):
            SimplicialComplex(2, [1], labels=("x", "x"))
        with pytest.raises(ValueError):
            SimplicialComplex(2, [1], labels=("x",))

    def test_ideal_minimalizes_generators(self):
        i = SquareFreeIdeal(3, masks({0, 1}, {0, 1, 2}))
        assert i.gens == tuple(masks({0, 1}))

    def test_zero_and_unit_rejected(self):
        with pytest.raises(ZeroOrUnitIdealError):
            SquareFreeIdeal(3, [])
        with pytest.raises(ZeroOrUnitIdealError):
            SquareFreeIdeal(3, [0])
        with pytest.raises(ZeroOrUnitIdealError):
            SquareFreeIdeal(3, masks({0, 1}, set()))

    @pytest.mark.parametrize(
        "value",
        [
            SimplicialComplex(2, [1]),
            SquareFreeIdeal(3, masks({0, 1}, {1, 2}), labels=("a", "b", "c")),
            MonomialIdeal(2, [(2, 0), (1, 1)]),
            polarize(MonomialIdeal(2, [(2, 0), (1, 1)])),
            IdealSource.from_text("x^2*y, y^3"),
        ],
        ids=lambda value: type(value).__name__,
    )
    def test_immutability(self, value):
        """Values cannot be changed, and survive pickle and copies equal,
        with equal hashes, so they can cross process boundaries."""
        for clone in (
            pickle.loads(pickle.dumps(value)),
            copy.copy(value),
            copy.deepcopy(value),
        ):
            assert clone == value and hash(clone) == hash(value)
        with pytest.raises(AttributeError):
            value.n = 5


class TestCorrespondences:
    def test_facet_complex_examples(self):
        i = SquareFreeIdeal(3, masks({0, 1}, {1, 2}))
        assert i.facet_complex().facets == tuple(masks({0, 1}, {1, 2}))
        single = SquareFreeIdeal(1, masks({0}))
        assert single.facet_complex().facets == (1,)
        wide = SquareFreeIdeal(4, masks({0, 1, 2}))
        c = wide.facet_complex()
        assert c.n == 4 and c.facets == tuple(masks({0, 1, 2}))

    def test_stanley_reisner_complex_examples(self):
        two_points = SquareFreeIdeal(2, masks({0, 1})).stanley_reisner_complex()
        assert two_points.facets == (0b01, 0b10)
        maximal = SquareFreeIdeal(3, masks({0}, {1}, {2}))
        assert maximal.stanley_reisner_complex().is_irrelevant
        # C_4 edge ideal: frozen value cross-checked against the brute force
        c4 = SquareFreeIdeal(4, masks({0, 1}, {1, 2}, {2, 3}, {0, 3}))
        delta = c4.stanley_reisner_complex()
        assert delta.facets == tuple(masks({0, 2}, {1, 3}))
        assert brute_sr_faces(c4) == brute_faces(delta.facets, 4)

    def test_facet_ideal_examples(self):
        c = SimplicialComplex(3, masks({0, 1}, {1, 2}))
        assert c.facet_ideal().gens == tuple(masks({0, 1}, {1, 2}))
        with pytest.raises(VoidOrIrrelevantError):
            SimplicialComplex.void(2).facet_ideal()
        with pytest.raises(VoidOrIrrelevantError):
            SimplicialComplex.irrelevant(2).facet_ideal()

    def test_stanley_reisner_ideal_examples(self):
        two_points = SimplicialComplex(2, [0b01, 0b10])
        assert two_points.stanley_reisner_ideal().gens == (0b11,)
        irrelevant = SimplicialComplex.irrelevant(2)
        assert irrelevant.stanley_reisner_ideal().gens == (0b01, 0b10)
        crossed = SimplicialComplex(4, masks({0, 2}, {1, 3}))
        ideal = crossed.stanley_reisner_ideal()
        assert set(ideal.gens) == set(masks({0, 1}, {1, 2}, {2, 3}, {0, 3}))
        assert list(ideal.gens) == brute_minimal_nonfaces(crossed)
        with pytest.raises(FullSimplexError):
            SimplicialComplex.full_simplex(3).stanley_reisner_ideal()

    @pytest.mark.parametrize("seed", range(30))
    def test_round_trips_random(self, seed):
        rng = random.Random(seed)
        n = rng.randint(1, 12)
        ideal = random_ideal(rng, n)
        assert ideal.facet_complex().facet_ideal() == ideal
        assert ideal.stanley_reisner_complex().stanley_reisner_ideal() == ideal

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_round_trips_exhaustive(self, n):
        # every antichain of nonempty subsets of an n-set
        def antichains(start, chosen):
            if chosen:
                yield tuple(chosen)
            for s in range(start, 1 << n):
                if not any(
                    subset_leq(s, c) or subset_leq(c, s) for c in chosen
                ):
                    chosen.append(s)
                    yield from antichains(s + 1, chosen)
                    chosen.pop()

        count = 0
        for gens in antichains(1, []):
            count += 1
            ideal = SquareFreeIdeal(n, gens)
            assert ideal.facet_complex().facet_ideal() == ideal
            assert (
                ideal.stanley_reisner_complex().stanley_reisner_ideal()
                == ideal
            )
        # Dedekind counts minus the two trivial antichains
        assert count == {1: 1, 2: 4, 3: 18, 4: 166}[n]

    @pytest.mark.parametrize("seed", range(15))
    def test_membership_consistency(self, seed):
        rng = random.Random(100 + seed)
        n = rng.randint(2, 8)
        ideal = random_ideal(rng, n)
        delta = ideal.stanley_reisner_complex()
        expected = brute_sr_faces(ideal)
        for s in range(1 << n):
            assert delta.has_face(s) == (s in expected)


class TestSkeletons:
    def setup_method(self):
        self.delta = SimplicialComplex(4, masks({0, 1, 2}, {2, 3}))

    def test_skeleton_example(self):
        sk = self.delta.skeleton(1)
        assert sk.facets == tuple(masks({0, 1}, {0, 2}, {1, 2}, {2, 3}))

    def test_skeleton_identity_and_bottom(self):
        assert self.delta.skeleton(self.delta.dim) == self.delta
        assert self.delta.skeleton(-1).is_irrelevant

    def test_skeleton_out_of_range(self):
        with pytest.raises(OutOfRangeError):
            self.delta.skeleton(3)
        with pytest.raises(OutOfRangeError):
            self.delta.skeleton(-2)
        with pytest.raises(OutOfRangeError):
            SimplicialComplex.void(2).skeleton(-1)

    def test_pure_skeleton_examples(self):
        assert self.delta.pure_skeleton(0).facets == (1, 2, 4, 8)
        assert self.delta.pure_skeleton(1).facets == tuple(
            masks({0, 1}, {0, 2}, {1, 2}, {2, 3})
        )
        pure = SimplicialComplex(3, masks({0, 1}, {1, 2}))
        assert pure.pure_skeleton(1) == pure

    @pytest.mark.parametrize("seed", range(10))
    def test_skeleton_face_sets(self, seed):
        rng = random.Random(200 + seed)
        n = rng.randint(2, 7)
        delta = random_complex(rng, n)
        all_faces = brute_faces(delta.facets, n)
        for i in range(-1, delta.dim + 1):
            sk_faces = brute_faces(delta.skeleton(i).facets, n)
            assert sk_faces == {
                f for f in all_faces if f.bit_count() - 1 <= i
            }
            pure_faces = brute_faces(delta.pure_skeleton(i).facets, n)
            top = {f for f in all_faces if f.bit_count() - 1 == i}
            expected = {
                f
                for f in all_faces
                if any(subset_leq(f, t) for t in top)
            }
            assert pure_faces == expected


class TestLinkRestrict:
    def setup_method(self):
        self.delta = SimplicialComplex(4, masks({0, 1, 2}, {2, 3}))

    def test_link_examples(self):
        link = self.delta.link([2])
        assert link.facets == tuple(masks({3}, {0, 1}))
        assert self.delta.link([]) == self.delta
        assert self.delta.link([0, 1, 2]).is_irrelevant

    def test_link_not_a_face(self):
        with pytest.raises(NotAFaceError):
            self.delta.link([0, 3])

    @pytest.mark.parametrize("seed", range(12))
    def test_link_matches_validating_constructor(self, seed):
        """``link`` skips validation; its result must equal, facet tuple and
        hash included, the complex the validating constructor builds."""
        rng = random.Random(900 + seed)
        n = rng.randint(1, 7)
        labels = tuple(f"v{rng.randrange(100)}_{i}" for i in range(n))
        delta = SimplicialComplex(n, random_complex(rng, n).facets, labels)
        faces = brute_faces(delta.facets, n)
        for face in sorted(faces):
            link = delta.link(face)
            expected = SimplicialComplex(
                n, [f ^ face for f in delta.facets if face & ~f == 0], labels
            )
            assert link == expected
            assert link.facets == expected.facets
            assert link.labels == labels
            assert hash(link) == hash(expected)
        for nonface in set(range(1 << n)) - faces:
            with pytest.raises(NotAFaceError):
                delta.link(nonface)
        with pytest.raises(ValueError, match="out of range"):
            delta.link(1 << n)
        with pytest.raises(NotAFaceError):
            SimplicialComplex.void(n).link(0)

    def test_restrict_examples(self):
        path = SimplicialComplex(3, masks({0, 1}, {1, 2}))
        assert path.restrict([0, 1]).facets == tuple(masks({0, 1}))
        assert path.restrict([]).is_irrelevant
        assert SimplicialComplex.void(3).restrict([]).is_void
        assert path.restrict([0, 2]).facets == (0b001, 0b100)

    @pytest.mark.parametrize("seed", range(10))
    def test_link_restrict_against_bruteforce(self, seed):
        rng = random.Random(300 + seed)
        n = rng.randint(2, 7)
        delta = random_complex(rng, n)
        faces = brute_faces(delta.facets, n)
        face = rng.choice(sorted(faces))
        link = delta.link(face)
        expected = {
            g for g in range(1 << n) if g & face == 0 and (g | face) in faces
        }
        assert brute_faces(link.facets, n) == expected
        w = rng.randrange(1 << n)
        restricted = delta.restrict(w)
        assert brute_faces(restricted.facets, n) == {
            f for f in faces if subset_leq(f, w)
        }


@pytest.mark.parametrize("seed", range(10))
def test_faces_by_dim_int_order(seed):
    rng = random.Random(1100 + seed)
    n = rng.randint(1, 7)
    delta = random_complex(rng, n)
    by_dim = delta.faces_by_dim()
    faces = brute_faces(delta.facets, n)
    assert list(by_dim) == sorted({f.bit_count() - 1 for f in faces})
    for d, group in by_dim.items():
        assert group == sorted(f for f in faces if f.bit_count() - 1 == d)
    assert SimplicialComplex.void(n).faces_by_dim() == {}


def test_faces_by_dim_int_order_on_sparse_masks():
    # masks far above the face count, where set order is not int order
    delta = SimplicialComplex(20, masks({0, 19}, {3, 12, 18}, {7, 18}))
    assert delta.faces_by_dim() == {
        -1: [0],
        0: [1 << 0, 1 << 3, 1 << 7, 1 << 12, 1 << 18, 1 << 19],
        1: sorted(masks({0, 19}, {3, 12}, {3, 18}, {12, 18}, {7, 18})),
        2: masks({3, 12, 18}),
    }


def test_dimension_examples():
    assert SimplicialComplex(4, masks({0, 1, 2}, {2, 3})).dim == 2
    assert SimplicialComplex.irrelevant(1).dim == -1
    assert SimplicialComplex(2, [0b01, 0b10]).dim == 0


def test_random_complex_usually_has_several_facets():
    """The sampler behind the random-complex tests must give more than one
    simplex on most draws, or those tests see few shapes."""
    several = 0
    for seed in range(1300, 1400):
        rng = random.Random(seed)
        several += len(random_complex(rng, rng.randint(2, 7)).facets) >= 2
    assert several >= 60

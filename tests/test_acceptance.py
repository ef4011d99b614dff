"""Acceptance suite: one test per criterion, one printed pass/fail line each.

Run with ``pytest tests/test_acceptance.py -v -s``.  The answers are
trusted because independent routes agree on them (the face-link walk, the
skeleton references and the Betti oracle); criterion 8 pins exact reduced
Betti numbers of small complexes.

Corpora are module-cached so the oracle cross-validation reuses the ideals
and pd values of the earlier criteria.
"""
import random
import time
from functools import lru_cache
from itertools import combinations

import monideal as m
from monideal.families import (
    random_chordal,
    random_monomial_ideal,
    random_squarefree_ideal,
)
from conftest import (
    bridged_triangles,
    masks,
    non_scm_graph,
    reference_depth,
    reference_is_scm,
    rp2_complex,
    rp2_cone_and_suspension,
)

FIELDS_12 = (2, 3)
FIELDS_235 = (2, 3, 5)


def report(name, ok, detail):
    print(f"\n[{'PASS' if ok else 'FAIL'}] {name}: {detail}")


@lru_cache(maxsize=None)
def random_corpus():
    """200 seeded random square-free ideals with n <= 10."""
    rng = random.Random(20240)
    out = []
    while len(out) < 200:
        n = rng.randint(2, 10)
        out.append(random_squarefree_ideal(n, rng))
    return tuple(out)


@lru_cache(maxsize=None)
def tree_corpus():
    """104 Pruefer-generated tree edge ideals, 13 per size 2..9."""
    out = []
    for n in range(2, 10):
        for seed in range(13):
            rng = random.Random(n * 1000 + seed)
            out.append(m.edge_ideal(m.pruefer_tree(n, rng)))
    return tuple(out)


@lru_cache(maxsize=None)
def chordal_corpus():
    """56 chordal-graph edge ideals, 8 per size 3..9."""
    out = []
    for n in range(3, 10):
        for seed in range(8):
            rng = random.Random(n * 2000 + seed)
            out.append(m.edge_ideal(random_chordal(n, rng)))
    return tuple(out)


@lru_cache(maxsize=None)
def monomial_corpus():
    """100 random monomial ideals, <= 4 source variables, exponents <= 3."""
    rng = random.Random(777)
    return tuple(
        random_monomial_ideal(rng.randint(1, 4), rng, max_exp=3)
        for _ in range(100)
    )


@lru_cache(maxsize=None)
def non_scm_corpus():
    """Ideals built to be not SCM: at every p, 12 edge ideals of graphs with
    an induced C4, C6 or C7 (four per length, n <= 10) and the
    Stanley-Reisner ideal of two triangles joined by an edge; at p = 2 only,
    those of RP^2, its cone and its suspension."""
    rng = random.Random(3030)
    always = [
        m.edge_ideal(non_scm_graph(rng, k, rng.randint(k + 2, 10)))
        for k in (4, 6, 7)
        for _ in range(4)
    ]
    always.append(bridged_triangles().stanley_reisner_ideal())
    rp2s = [c.stanley_reisner_ideal() for c in rp2_cone_and_suspension()]
    return tuple(always), tuple(rp2s)


@lru_cache(maxsize=None)
def pd_of(ideal, p):
    return m.projective_dimension(ideal, m.PrimeField(p))


@lru_cache(maxsize=None)
def scm_of(ideal, p):
    return m.is_sequentially_cm(ideal, m.PrimeField(p))


def test_criterion_1_unconditional_inequalities():
    """depth <= n - d and pd >= d on 200 random ideals, p in {2,3}, <5 min."""
    start = time.time()
    good = 0
    corpus = random_corpus()
    for ideal in corpus:
        d = m.big_height(ideal)
        ok = True
        for p in FIELDS_12:
            dep = ideal.n - pd_of(ideal, p)
            ok = ok and dep <= ideal.n - d and ideal.n - dep >= d
        good += ok
    elapsed = time.time() - start
    ok = good == len(corpus) == 200 and elapsed < 300
    report(
        "criterion 1 (theorem inequalities)",
        ok,
        f"{good}/{len(corpus)} ideals, fields {FIELDS_12}, {elapsed:.1f}s",
    )
    assert good == len(corpus) == 200
    assert elapsed < 300


def test_criterion_2_equality_under_scm():
    """Trees and chordal graphs: SCM, pd = big height, same pd for p in
    {2,3,5}."""
    trees, chordals = tree_corpus(), chordal_corpus()
    good = 0
    for ideal in trees + chordals:
        d = m.big_height(ideal)
        pds = [pd_of(ideal, p) for p in FIELDS_235]
        scms = [scm_of(ideal, p) for p in FIELDS_235]
        good += all(scms) and all(pd == d for pd in pds)
    total = len(trees) + len(chordals)
    ok = good == total and len(trees) >= 100 and len(chordals) >= 50
    report(
        "criterion 2 (SCM equality on trees and chordal graphs)",
        ok,
        f"{good}/{total} ideals ({len(trees)} trees, {len(chordals)} chordal), "
        f"fields {FIELDS_235}",
    )
    assert ok


def test_criterion_3_oracle_cross_validation():
    """Three routes to pd agree on every corpus ideal with n <= 10, at every
    field its criterion uses: the face-link walk, the skeleton-criterion
    reference and the brute-force table.  Walk SCM equals the pure-skeleton
    reference.  Ideals built to be not SCM (induced C4, C6, C7; two bridged
    triangles; RP^2 with its cone and suspension) join at p in {2, 3, 5}."""
    always, rp2s = non_scm_corpus()
    pairs = [(ideal, p) for ideal in random_corpus() for p in FIELDS_12]
    pairs += [
        (ideal, p)
        for ideal in tree_corpus() + chordal_corpus() + always + rp2s
        for p in FIELDS_235
    ]
    must_fail = {(g, p) for g in always for p in FIELDS_235}
    must_fail |= {(r, 2) for r in rp2s}
    mismatches = 0
    split = {True: 0, False: 0}
    for ideal, p in pairs:
        field = m.PrimeField(p)
        delta = ideal.stanley_reisner_complex()
        walk_pd, walk_scm = pd_of(ideal, p), scm_of(ideal, p)
        mismatches += not (
            walk_pd
            == ideal.n - reference_depth(delta, field)
            == m.pd_oracle(ideal, field)
            and walk_scm == reference_is_scm(delta, field)
            and not (walk_scm and (ideal, p) in must_fail)
        )
        split[walk_scm] += 1
    ok = mismatches == 0
    report(
        "criterion 3 (oracle cross-validation)",
        ok,
        f"{len(pairs) - mismatches}/{len(pairs)} ideal-field pairs agree "
        "exactly (pd: walk = skeleton reference = oracle; SCM: walk = "
        f"pure-skeleton reference); {split[True]} SCM, {split[False]} non-SCM",
    )
    assert ok


def test_criterion_4_named_small_cases():
    """Exact invariants of the five named ideals, oracle first."""
    gf2 = m.PrimeField(2)
    p4 = m.edge_ideal(m.path_graph(4))
    c4 = m.edge_ideal(m.cycle_graph(4))
    c5 = m.edge_ideal(m.cycle_graph(5))
    maximal = m.SquareFreeIdeal(3, [1, 2, 4])
    checks = []
    for ideal, want_pd, want_d in ((p4, 2, 2), (c4, 3, 2), (c5, 3, 3),
                                   (maximal, 3, 3)):
        checks.append(m.pd_oracle(ideal, gf2) == want_pd)
        checks.append(pd_of(ideal, 2) == want_pd)
        checks.append(m.big_height(ideal) == want_d)
    checks.append(scm_of(p4, 2) is True)
    checks.append(scm_of(c4, 2) is False)  # strict inequality witness: 3 > 2
    checks.append(scm_of(c5, 2) is True)
    mixed = m.MonomialIdeal(2, [(2, 0), (1, 1)], labels=("x", "y"))
    checks.append(m.pd_general(mixed, gf2) == 2)
    checks.append(m.big_height_general(mixed) == 2)
    ok = all(checks)
    report(
        "criterion 4 (named small cases)",
        ok,
        f"{sum(checks)}/{len(checks)} exact values "
        "(P4, C4, C5, maximal ideal, (x^2,xy))",
    )
    assert ok


def test_criterion_5_proof_step_invariants():
    """Skeleton identity at the cut, prime/facet duality, dim = n - d_min,
    impurity above the cut."""
    good = 0
    corpus = random_corpus()
    for ideal in corpus:
        n = ideal.n
        primes = m.minimal_primes(ideal)
        delta = ideal.stanley_reisner_complex()
        full = (1 << n) - 1
        cut = n - primes.d_max - 1
        ok = delta.skeleton(cut) == delta.pure_skeleton(cut)
        ok = ok and set(delta.facets) == {full ^ p for p in primes.primes}
        ok = ok and m.krull_dimension(ideal) == n - primes.d_min
        if primes.d_min < primes.d_max:
            ok = ok and all(
                not delta.skeleton(i).is_pure
                for i in range(cut + 1, delta.dim + 1)
            )
        good += ok
    ok = good == len(corpus)
    report(
        "criterion 5 (proof-step invariants)",
        ok,
        f"{good}/{len(corpus)} ideals pass all four steps",
    )
    assert ok


def test_criterion_6_polarization_invariance():
    """pd and big height unchanged by double polarization; named powers."""
    gf2 = m.PrimeField(2)
    good = 0
    corpus = monomial_corpus()
    for ideal in corpus:
        once = m.polarize(ideal).target
        again = m.MonomialIdeal.from_squarefree(once)
        pd_first = m.pd_general(ideal, gf2)
        pd_second = m.pd_general(again, gf2)
        ok = pd_first == pd_second
        ok = ok and m.big_height_general(ideal) == m.big_height_general(again)
        good += ok
    named = (
        m.pd_general(m.MonomialIdeal(2, [(2, 0), (1, 1)]), gf2) == 2
        and m.big_height_general(m.MonomialIdeal(2, [(2, 0), (1, 1)])) == 2
        and m.pd_general(m.MonomialIdeal(1, [(2,)]), gf2) == 1
        and m.big_height_general(m.MonomialIdeal(1, [(3,)])) == 1
    )
    ok = good == len(corpus) == 100 and named
    report(
        "criterion 6 (polarization invariance)",
        ok,
        f"{good}/{len(corpus)} double-polarization fixed points, "
        f"named powers {'ok' if named else 'BAD'}",
    )
    assert ok


def test_criterion_7_field_dependence_regression():
    """RP^2 flips CM-ness between GF(2) and GF(3); the SCM families do not
    depend on the field at all."""
    gf2, gf3 = m.PrimeField(2), m.PrimeField(3)
    ideal = rp2_complex().stanley_reisner_ideal()
    cm2 = m.is_cohen_macaulay(ideal.stanley_reisner_complex(), gf2)
    cm3 = m.is_cohen_macaulay(ideal.stanley_reisner_complex(), gf3)
    d2, d3 = m.depth(ideal, gf2), m.depth(ideal, gf3)
    rp2_ok = (
        cm2 is False
        and cm3 is True
        and d2 == 2
        and d3 == 3
        and ideal.n - m.pd_oracle(ideal, gf2) == d2
        and ideal.n - m.pd_oracle(ideal, gf3) == d3
    )
    stable = 0
    family = tree_corpus() + chordal_corpus()
    for fam in family:
        reports = {
            (pd_of(fam, p), scm_of(fam, p)) for p in FIELDS_235
        }
        stable += len(reports) == 1
    ok = rp2_ok and stable == len(family)
    report(
        "criterion 7 (field dependence)",
        ok,
        f"RP2: is_cm {str(cm2).lower()}@2/{str(cm3).lower()}@3, depth {d2}@2/{d3}@3; "
        f"{stable}/{len(family)} family ideals field-independent",
    )
    assert ok


def test_criterion_8_homology_engine():
    """The exact Betti fixtures hold."""
    gf2, gf3 = m.PrimeField(2), m.PrimeField(3)
    fixtures = []
    two_points = m.SimplicialComplex(2, [0b01, 0b10])
    fixtures.append(m.reduced_betti_numbers(two_points, gf2) == {-1: 0, 0: 1})
    hollow = m.SimplicialComplex(3, masks({0, 1}, {0, 2}, {1, 2}))
    fixtures.append(
        m.reduced_betti_numbers(hollow, gf3) == {-1: 0, 0: 0, 1: 1}
    )
    for k in (2, 3):
        sphere = m.SimplicialComplex(
            k + 1,
            [sum(1 << v for v in c) for c in combinations(range(k + 1), k)],
        )
        betti = m.reduced_betti_numbers(sphere, gf2)
        fixtures.append(
            betti[k - 1] == 1
            and all(v == 0 for d, v in betti.items() if d != k - 1)
        )
    rng = random.Random(8)
    base = m.SimplicialComplex(
        5, [sum(1 << v for v in rng.sample(range(5), 3)) for _ in range(3)]
    )
    cone = m.SimplicialComplex(6, [f | (1 << 5) for f in base.facets])
    fixtures.append(
        all(v == 0 for v in m.reduced_betti_numbers(cone, gf3).values())
    )
    ok = all(fixtures)
    report(
        "criterion 8 (homology engine fixtures)",
        ok,
        f"{sum(fixtures)}/{len(fixtures)} fixtures exact",
    )
    assert ok

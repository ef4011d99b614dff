"""Depth, projective dimension, the sequential Cohen-Macaulay test, and the
verification pipeline tying them to big height.

depth and sequential Cohen-Macaulayness both come from one walk over the
closed faces of the Stanley-Reisner complex (``homology._link_walk``):
Hochster's local-cohomology formula for depth, Duval's pure-skeleton
criterion restated on links for SCM.  The paper's skeleton and pure-skeleton criteria are the
test reference the walk is checked against.  Projective dimension is n -
depth.  All of it is checked against the big height: depth <= n - d and
pd >= d always, with equality in the sequentially CM case.
"""
from __future__ import annotations

from dataclasses import dataclass

from .complexes import SimplicialComplex, SquareFreeIdeal
from .covers import minimal_primes
from .homology import PrimeField, _link_walk


def depth(ideal: SquareFreeIdeal, field: PrimeField) -> int:
    """depth of the quotient, by Hochster's formula over the face-link walk."""
    return _link_walk(ideal.stanley_reisner_complex(), field)[0]


def projective_dimension(ideal: SquareFreeIdeal, field: PrimeField) -> int:
    """n - depth (Auslander-Buchsbaum bookkeeping)."""
    return ideal.n - depth(ideal, field)


def is_sequentially_cm(ideal: SquareFreeIdeal, field: PrimeField) -> bool:
    """Duval's criterion, restated on links, over the face-link walk."""
    return _link_walk(ideal.stanley_reisner_complex(), field)[1]


@dataclass(frozen=True)
class VerificationReport:
    """All computed invariants of one ideal plus the theorem checks."""

    n: int
    d_min: int
    d_max: int
    dim: int
    depth: int
    pd: int
    is_cm: bool
    is_scm: bool
    field_p: int
    primes: tuple[int, ...]
    inequality_depth_ok: bool
    inequality_pd_ok: bool
    theorem_equality_ok: bool
    pd_oracle: int | None = None
    oracle_agrees: bool | None = None

    def all_ok(self) -> bool:
        checks = [
            self.inequality_depth_ok,
            self.inequality_pd_ok,
            self.theorem_equality_ok,
        ]
        if self.oracle_agrees is not None:
            checks.append(self.oracle_agrees)
        return all(checks)


def verify_main_theorem(
    ideal: SquareFreeIdeal,
    field: PrimeField,
    with_oracle: bool = False,
    oracle_cap: int = 20,
) -> VerificationReport:
    """Compute every invariant of one ideal and check the theorem on it.

    The two unconditional checks are depth <= n - d_max and pd >= d_max; the
    conditional one is pd = d_max whenever the quotient is sequentially CM.
    With ``with_oracle`` the projective dimension is recomputed from the
    brute-force Betti table and compared.
    """
    primes = minimal_primes(ideal)
    n = ideal.n
    dim = n - primes.d_min
    # the facets of the Stanley-Reisner complex are the primes' complements
    full = (1 << n) - 1
    delta = SimplicialComplex(n, (full ^ c for c in primes.primes), ideal.labels)
    dep, scm = _link_walk(delta, field)
    pd = n - dep
    pd_oracle = None
    agrees = None
    if with_oracle:
        from .betti import pd_oracle as oracle_pd

        pd_oracle = oracle_pd(ideal, field, cap=oracle_cap)
        agrees = pd_oracle == pd
    return VerificationReport(
        n=n,
        d_min=primes.d_min,
        d_max=primes.d_max,
        dim=dim,
        depth=dep,
        pd=pd,
        is_cm=dep == dim,
        is_scm=scm,
        field_p=field.p,
        primes=primes.primes,
        inequality_depth_ok=dep <= n - primes.d_max,
        inequality_pd_ok=pd >= primes.d_max,
        theorem_equality_ok=(not scm) or pd == primes.d_max,
        pd_oracle=pd_oracle,
        oracle_agrees=agrees,
    )

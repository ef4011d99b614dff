"""Seeded corpora for the benchmark workloads, and the checks on their output.

A corpus is a list of rounds.  Every round holds the same mix of kinds and
sizes, so a run that stops part-way through the corpus still measures the
designed mix; the seed only chooses which instances of each kind appear.
Each corpus item is one CLI call: the argument vector handed to
``monideal.cli.main`` and what its output must satisfy.
"""
from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass

from monideal import families
from monideal.families import FamilySpec, Graph, edge_ideal

# Rounds per corpus.  A run stops when its time is up, so the corpus only has
# to outlast a run of the current code; a faster program wraps around to
# round 0 and keeps measuring the same mix.
ROUNDS = 160


@dataclass(frozen=True)
class Item:
    """One CLI call of a workload."""

    index: int
    ideal: int        # id shared by the calls made on one ideal
    kind: str
    n: int
    argv: tuple[str, ...]
    labels: tuple[str, ...]
    supports: tuple[int, ...]   # generator supports (of the radical) as masks
    non_scm: bool     # built to be not sequentially Cohen-Macaulay


@dataclass(frozen=True)
class Workload:
    name: str
    flags: tuple[str, ...]   # appended to every call
    mix: tuple[tuple, ...]   # (kind, n, per round, FamilySpec extra, commands)
    trace_items: int         # corpus prefix the traced run measures


VERIFY = (("verify",),)
COVERS = (("primes",), ("big-height",), ("dim",))

# Sizes keep one call at tens of milliseconds (CPython 3.11, 2 cores), so a
# 25-second run holds hundreds of calls: enough for its p90 and for its
# medians to move little from one seed to the next.  Costs grow about
# exponentially in n; at n = 14-16 a run would hold a few dozen calls.
#
# verify_gf2 and verify_gfp run the same ideals; only the field differs.
VERIFY_MIX = (
    ("tree", 10, 2, {}, VERIFY),
    ("chordal", 12, 2, {}, VERIFY),
    ("forest", 9, 1, {}, VERIFY),
    ("random_squarefree", 8, 1, {}, VERIFY),
    ("non_scm_graph", 10, 1, {}, VERIFY),
    ("cycle", 6, 1, {"span": 4}, VERIFY),     # n = 6..9, one per round in turn
)

WORKLOADS = {
    w.name: w
    for w in (
        Workload("verify_gf2", ("--json", "--field", "2"), VERIFY_MIX, trace_items=240),
        Workload("verify_gfp", ("--json", "--field", "3"), VERIFY_MIX, trace_items=160),
        Workload(
            "oracle",
            ("--json", "--oracle", "--field", "2"),
            (
                ("cycle", 9, 1, {"span": 3}, VERIFY),    # n = 9..11 in turn
                ("forest", 9, 2, {}, VERIFY),
                ("forest", 10, 1, {}, VERIFY),
            ),
            trace_items=54,
        ),
        Workload(
            "covers",
            ("--json",),
            (
                ("tree", 26, 1, {}, COVERS),
                ("chordal", 26, 1, {}, COVERS),
                ("path_ideal", 21, 1, {}, COVERS),
                ("random_monomial", 14, 1, {}, COVERS),
            ),
            trace_items=216,
        ),
    )
}


def non_scm_graph(n: int, rng: random.Random) -> Graph:
    """Graph on n vertices with an induced 4-, 6- or 7-cycle C, built so that
    the independence complex is not sequentially Cohen-Macaulay.

    The vertices off C are pairwise non-adjacent hubs, none adjacent to C,
    and leaves, each adjacent to one hub and possibly to C.  With S the hubs,
    the link of S in the independence complex is the independence complex of
    C, which is not sequentially CM for these lengths; links of sequentially
    CM complexes are sequentially CM, so the whole complex is not either.
    """
    k = rng.choice((4, 6, 7))
    hubs = rng.randint(1, max(1, (n - k) // 2))
    edges = [(i, (i + 1) % k) for i in range(k)]
    leaves = range(k + hubs, n)
    for j, leaf in enumerate(leaves):
        # every hub gets a leaf, then leaves pick hubs at random
        hub = k + (j if j < hubs else rng.randrange(hubs))
        edges.append((hub, leaf))
        if rng.random() < 0.6:
            edges.append((rng.randrange(k), leaf))
    order = list(range(n))
    rng.shuffle(order)
    return Graph(n, [(order[u], order[v]) for u, v in edges])


def _ideals(kind: str, n: int, count: int, seed: int, extra: dict):
    """``count`` ideals of one kind, seeded; cycles take no seed, and vary n
    over ``extra["span"]`` sizes instead."""
    if kind == "cycle":
        return [
            families.generate(FamilySpec("cycle", n + r % extra["span"]))[0]
            for r in range(count)
        ]
    if kind == "non_scm_graph":
        rng = random.Random(f"non_scm_graph/{seed}")
        return [edge_ideal(non_scm_graph(n, rng)) for _ in range(count)]
    return families.generate(
        FamilySpec(kind, n, seed=seed, count=count, extra=dict(extra))
    )


def _supports(ideal) -> tuple[int, ...]:
    if hasattr(ideal, "support_radical"):
        ideal = ideal.support_radical()
    return ideal.gens


def build(workload: str, seed: int, rounds: int = ROUNDS) -> list[Item]:
    """The corpus of one workload: ``rounds`` rounds of its mix."""
    spec = WORKLOADS[workload]
    pools = [
        _ideals(kind, n, per_round * rounds, seed, extra)
        for kind, n, per_round, extra, _ in spec.mix
    ]
    items: list[Item] = []
    ideal_id = 0
    for r in range(rounds):
        for (kind, _, per_round, _, commands), pool in zip(spec.mix, pools):
            for ideal in pool[r * per_round:(r + 1) * per_round]:
                text = ", ".join(ideal.generator_monomials())
                for command in commands:
                    argv = (*command, text, "--vars", ",".join(ideal.labels))
                    items.append(
                        Item(
                            index=len(items),
                            ideal=ideal_id,
                            kind=kind,
                            n=ideal.n,
                            argv=argv + spec.flags,
                            labels=ideal.labels,
                            supports=_supports(ideal),
                            non_scm=kind in ("non_scm_graph", "cycle"),
                        )
                    )
                ideal_id += 1
    return items


def digest(out: str) -> str:
    return hashlib.sha256(out.encode()).hexdigest()[:16]


class Checker:
    """Checks each call's output; calls must arrive in corpus order."""

    THEOREM_FLAGS = (
        "inequality_depth_ok",
        "inequality_pd_ok",
        "theorem_equality_ok",
    )

    def __init__(self, reference: list[str] | None):
        self.reference = reference
        self._primes: dict[int, dict] = {}

    def check(self, item: Item, code: int, out: str) -> str | None:
        """None if the call is correct, else the reason it is not."""
        if code != 0:
            return f"exit code {code}"
        if self.reference is not None:
            if digest(out) != self.reference[item.index]:
                return "stdout digest differs from the reference"
        payload = json.loads(out)
        command = item.argv[0]
        if command == "verify":
            return self._check_verify(item, payload)
        return self._check_covers(item, command, payload)

    def _check_verify(self, item: Item, payload: dict) -> str | None:
        failed = [k for k in self.THEOREM_FLAGS if payload[k] is not True]
        if "--oracle" in item.argv and payload["oracle_agrees"] is not True:
            failed.append("oracle_agrees")
        if failed:
            return "failed flags: " + ",".join(failed)
        if item.non_scm and payload["is_scm"]:
            return "non-SCM ideal reported sequentially CM"
        return None

    def _check_covers(self, item: Item, command: str, payload: dict):
        if command == "primes":
            bit = {name: 1 << i for i, name in enumerate(item.labels)}
            sizes = []
            for names in payload["minimal_primes"]:
                prime = sum(bit[name] for name in names)
                private = 0   # vertices that alone cover some generator
                for support in item.supports:
                    hit = support & prime
                    if not hit:
                        return "a prime misses a generator"
                    if hit & (hit - 1) == 0:
                        private |= hit
                if private != prime:
                    return "a prime is not a minimal cover"
                sizes.append(len(names))
            if (payload["d_min"], payload["d_max"]) != (min(sizes), max(sizes)):
                return "d_min/d_max disagree with the primes"
            self._primes = {item.ideal: payload}
            return None
        primes = self._primes[item.ideal]
        if command == "dim":
            if payload["dim"] != item.n - primes["d_min"]:
                return "dim != n - d_min"
        elif item.kind == "random_monomial":
            # associated primes include the minimal ones
            if payload["big_height"] < primes["d_max"]:
                return "big height below d_max of the minimal primes"
        elif payload["big_height"] != primes["d_max"]:
            return "big height != d_max"
        return None


def is_scm_of(out: str) -> bool | None:
    """The is_scm flag of a verify output, None for other commands."""
    try:
        return json.loads(out).get("is_scm")
    except (ValueError, AttributeError):
        return None

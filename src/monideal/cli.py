"""Command-line front end.

One subcommand per computation, a shared flag set, deterministic output.
Human-readable text by default, one JSON object per result with --json,
CSV for batch sweeps.  Exit codes: 0 ok, 2 parse/spec error, 3 size cap
exceeded, 4 zero/unit ideal, 5 internal error (always a bug).
"""
from __future__ import annotations

import argparse
import csv
import functools
import json
import sys
import traceback

from .betti import DEFAULT_CAP, hochster_betti_table
from .bitsets import bits, sort_key
from .complexes import SquareFreeIdeal
from .covers import big_height, krull_dimension, minimal_primes
from .errors import (
    BadSpecError,
    EmptyGraphError,
    MonidealError,
    ParseError,
    TooLargeError,
    TooManyFacetsError,
    ZeroOrUnitIdealError,
)
from .families import KINDS, FamilySpec, generate
from .homology import PrimeField, is_cohen_macaulay
from .invariants import (
    VerificationReport,
    is_sequentially_cm,
    projective_dimension,
    verify_main_theorem,
)
from .parsing import IdealSource
from .polarization import MonomialIdeal, _square_free, polarize

BATCH_HEADER = (
    "kind,seed,n,gens,field,d_min,d_max,dim,depth,pd,pd_oracle,"
    "is_cm,is_scm,ineq_depth,ineq_pd,scm_equality,oracle_agrees"
)


class _Job:
    """Parsed input; the square-free ideals are built on first use."""

    def __init__(self, args):
        variables = args.vars.split(",") if args.vars else None
        self.source = IdealSource.from_text(args.ideal, variables=variables)
        if self.source.dropped_generators > 0:
            print(
                f"warning: dropped {self.source.dropped_generators} "
                "redundant generator(s)",
                file=sys.stderr,
            )
        self.mono = self.source.ideal
        self.field = PrimeField(args.field)

    @functools.cached_property
    def radical(self) -> SquareFreeIdeal:
        return self.mono.support_radical()

    @functools.cached_property
    def work(self) -> SquareFreeIdeal:
        return _square_free(self.mono)


def _names(ideal: SquareFreeIdeal, mask: int) -> list[str]:
    return [ideal.labels[v] for v in bits(mask)]


def _set_text(names: list[str]) -> str:
    return "{" + ",".join(names) + "}"


def _emit(args, text: str, payload):
    if args.json:
        print(json.dumps(payload))
    else:
        print(text)


def _scalar(value):
    """Handler of a command that prints one value of the job: the JSON key
    is the command name with "_" for "-", the text the value in lower case."""

    def handler(args):
        job = _Job(args)
        result = value(job)
        key = args.command.replace("-", "_")
        _emit(args, str(result).lower(), {key: result, "field": job.field.p})
        return 0

    return handler


def cmd_primes(args):
    job = _Job(args)
    decomposition = minimal_primes(job.radical)
    primes = [_names(job.radical, p) for p in decomposition.primes]
    _emit(
        args,
        "\n".join(map(_set_text, primes)),
        {
            "minimal_primes": primes,
            "d_min": decomposition.d_min,
            "d_max": decomposition.d_max,
        },
    )
    return 0


def cmd_betti(args):
    job = _Job(args)
    table = hochster_betti_table(job.work, job.field, cap=args.oracle_cap)
    items = sorted(table.entries.items(), key=lambda kv: (kv[0][0], sort_key(kv[0][1])))
    entries = [[i, _names(job.work, sigma), value] for (i, sigma), value in items]
    lines = [
        f"beta[{i}, {_set_text(names)}] = {value}" for i, names, value in entries
    ]
    lines.append(f"pd = {table.pd}")
    _emit(
        args,
        "\n".join(lines),
        {"n": table.n, "field": table.field_p, "pd": table.pd, "entries": entries},
    )
    return 0


def cmd_polarize(args):
    job = _Job(args)
    target = polarize(job.mono).target
    gens = [_names(target, g) for g in target.gens]
    _emit(
        args,
        ", ".join(map("*".join, gens)),
        {"variables": list(target.labels), "generators": gens},
    )
    return 0


def _report_payload(report: VerificationReport, ideal: SquareFreeIdeal):
    return {
        "n": report.n,
        "d_min": report.d_min,
        "d_max": report.d_max,
        "dim": report.dim,
        "depth": report.depth,
        "pd": report.pd,
        "pd_oracle": report.pd_oracle,
        "is_cm": report.is_cm,
        "is_scm": report.is_scm,
        "field": report.field_p,
        "inequality_depth_ok": report.inequality_depth_ok,
        "inequality_pd_ok": report.inequality_pd_ok,
        "theorem_equality_ok": report.theorem_equality_ok,
        "oracle_agrees": report.oracle_agrees,
        "generators": [_names(ideal, g) for g in ideal.gens],
        "minimal_primes": [_names(ideal, p) for p in report.primes],
    }


def _report_text(payload) -> str:
    lines = []
    for key, value in payload.items():
        if key == "generators":
            value = ", ".join("*".join(g) for g in value)
        elif key == "minimal_primes":
            value = ", ".join(map(_set_text, value))
        elif isinstance(value, bool):
            value = str(value).lower()
        elif value is None:
            value = "-"
        lines.append(f"{key}: {value}")
    return "\n".join(lines)


def cmd_verify(args):
    job = _Job(args)
    report = verify_main_theorem(
        job.work, job.field, with_oracle=args.oracle, oracle_cap=args.oracle_cap
    )
    payload = _report_payload(report, job.work)
    _emit(args, _report_text(payload), payload)
    return 0


def _family_spec(args) -> FamilySpec:
    extra = {}
    if args.t is not None:
        extra["t"] = args.t
    if args.max_exp is not None:
        extra["max_exp"] = args.max_exp
    if args.max_gens is not None:
        extra["max_gens"] = args.max_gens
    if args.max_facet is not None:
        extra["max_facet"] = args.max_facet
    return FamilySpec(
        kind=args.kind, n=args.n, seed=args.seed, count=args.count, extra=extra
    )


def cmd_gen(args):
    spec = _family_spec(args)
    for ideal in generate(spec):
        text = ", ".join(ideal.generator_monomials())
        if args.json:
            print(json.dumps({"kind": spec.kind, "generators": text}))
        else:
            print(text)
    return 0


def cmd_batch(args):
    spec = _family_spec(args)
    field = PrimeField(args.field)
    writer = csv.writer(sys.stdout, lineterminator="\n")
    columns = BATCH_HEADER.split(",")
    if not args.json:
        writer.writerow(columns)
    for ideal in generate(spec):
        work = _square_free(ideal) if isinstance(ideal, MonomialIdeal) else ideal
        use_oracle = args.oracle and work.n <= args.oracle_cap
        report = verify_main_theorem(
            work, field, with_oracle=use_oracle, oracle_cap=args.oracle_cap
        )
        row = (
            spec.kind, spec.seed, report.n, len(work.gens), report.field_p,
            report.d_min, report.d_max, report.dim, report.depth, report.pd,
            report.pd_oracle, report.is_cm, report.is_scm,
            report.inequality_depth_ok, report.inequality_pd_ok,
            report.theorem_equality_ok, report.oracle_agrees,
        )
        if args.json:
            print(json.dumps(dict(zip(columns, row))))
        else:
            writer.writerow(
                [
                    "" if v is None else (str(v).lower() if isinstance(v, bool) else v)
                    for v in row
                ]
            )
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built on first use and then reused; parsing
    leaves it unchanged."""
    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument("--field", type=int, default=2, help="prime field order")
    shared.add_argument("--json", action="store_true", help="machine-readable output")
    shared.add_argument("--oracle", action="store_true",
                        help="also run the brute-force Betti oracle")
    shared.add_argument("--oracle-cap", type=int, default=DEFAULT_CAP,
                        help="largest n the Betti oracle accepts")
    shared.add_argument("--seed", type=int, default=0, help="generator seed")
    shared.add_argument("--vars", type=str, default=None,
                        help="comma-separated variable universe (may include unused)")

    parser = argparse.ArgumentParser(
        prog="monideal",
        description="Depth, projective dimension and big height of monomial "
        "ideals via Stanley-Reisner combinatorics.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def pd(job):
        return projective_dimension(job.work, job.field)

    ideal_commands = [
        ("pd", _scalar(pd), "projective dimension of the quotient"),
        # pd is the same over the polarized ring, which has more variables
        ("depth", _scalar(lambda job: job.mono.n - pd(job)),
         "depth of the quotient (source ring)"),
        ("dim", _scalar(lambda job: krull_dimension(job.radical)),
         "Krull dimension of the quotient"),
        ("big-height", _scalar(lambda job: big_height(job.work)),
         "largest associated-prime height"),
        ("primes", cmd_primes, "minimal primes as vertex covers"),
        ("is-cm", _scalar(lambda job: is_cohen_macaulay(
            job.work.stanley_reisner_complex(), job.field)),
         "Cohen-Macaulayness over GF(p)"),
        ("is-scm", _scalar(lambda job: is_sequentially_cm(job.work, job.field)),
         "sequential Cohen-Macaulayness over GF(p)"),
        ("betti", cmd_betti, "brute-force multigraded Betti table"),
        ("polarize", cmd_polarize, "square-free polarization"),
        ("verify", cmd_verify, "full report plus theorem checks"),
    ]
    for name, handler, help_text in ideal_commands:
        p = sub.add_parser(name, parents=[shared], help=help_text)
        p.add_argument("ideal", help="ideal text, e.g. 'x1*x2, x2^2*x3'")
        p.set_defaults(handler=handler)

    for name, handler in (("gen", cmd_gen), ("batch", cmd_batch)):
        p = sub.add_parser(
            name,
            parents=[shared],
            help="generate family ideals" if name == "gen"
            else "sweep a family and emit one report row per ideal",
        )
        p.add_argument("kind", choices=KINDS)
        p.add_argument("--n", type=int, required=True, help="vertex/variable count")
        p.add_argument("--count", type=int, default=1)
        p.add_argument("--t", type=int, default=None, help="path length (path_ideal)")
        p.add_argument("--max-exp", type=int, default=None,
                       help="exponent bound (random_monomial)")
        p.add_argument("--max-gens", type=int, default=None,
                       help="generator bound (random kinds)")
        p.add_argument("--max-facet", type=int, default=None,
                       help="facet size bound (simplicial_tree)")
        p.set_defaults(handler=handler)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except (ParseError, BadSpecError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (TooLargeError, TooManyFacetsError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (ZeroOrUnitIdealError, EmptyGraphError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except MonidealError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        traceback.print_exc()
        return 5
    except ValueError as exc:
        # bad flag values (e.g. a composite --field)
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # noqa: BLE001
        print(f"internal error: {exc}", file=sys.stderr)
        traceback.print_exc()
        return 5


if __name__ == "__main__":
    sys.exit(main())

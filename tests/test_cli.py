import io
import json
from contextlib import redirect_stderr, redirect_stdout

import pytest

from monideal import SquareFreeIdeal, verify_main_theorem, PrimeField
from monideal import bitsets, polarization
from monideal.cli import build_parser, main
from conftest import count_calls


def run_cli(*argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


def test_pd_depth_dim():
    assert run_cli("pd", "x1*x2,x2*x3,x3*x4")[:2] == (0, "2\n")
    assert run_cli("depth", "x1*x2,x2*x3,x3*x4")[:2] == (0, "2\n")
    assert run_cli("dim", "x1*x2,x2*x3,x3*x4")[:2] == (0, "2\n")


def test_big_height_via_polarization():
    code, out, _ = run_cli("big-height", "x^2,x*y")
    assert code == 0 and out == "2\n"


def test_primes_output():
    code, out, _ = run_cli("primes", "x1*x2,x2*x3,x3*x4")
    assert code == 0
    assert out.splitlines() == ["{x1,x3}", "{x2,x3}", "{x2,x4}"]


def test_is_cm_is_scm():
    assert run_cli("is-cm", "x1*x2,x2*x3,x3*x4,x1*x4")[:2] == (0, "false\n")
    assert run_cli("is-scm", "x1*x2,x2*x3,x3*x4")[:2] == (0, "true\n")


def test_verify_report():
    code, out, _ = run_cli(
        "verify", "x1*x2,x2*x3,x3*x4", "--field", "2", "--oracle"
    )
    assert code == 0
    report = dict(line.split(": ", 1) for line in out.strip().splitlines())
    assert report["pd"] == "2"
    assert report["d_max"] == "2"
    assert report["is_scm"] == "true"
    assert report["oracle_agrees"] == "true"


def test_verify_json_round_trip():
    code, out, _ = run_cli(
        "verify", "x1*x2,x2*x3,x3*x4", "--json", "--oracle"
    )
    assert code == 0
    payload = json.loads(out)
    labels = sorted({v for g in payload["generators"] for v in g})
    index = {name: i for i, name in enumerate(labels)}
    rebuilt = SquareFreeIdeal(
        len(labels),
        [[index[v] for v in g] for g in payload["generators"]],
        tuple(labels),
    )
    report = verify_main_theorem(
        rebuilt, PrimeField(payload["field"]), with_oracle=True
    )
    assert report.pd == payload["pd"]
    assert report.depth == payload["depth"]
    assert report.d_max == payload["d_max"]
    assert report.is_scm == payload["is_scm"]
    assert report.pd_oracle == payload["pd_oracle"]


def test_vars_flag_metamorphic_shift():
    """Adding one unused variable bumps n, dim and depth; pd and big height
    stay put."""
    base = json.loads(run_cli("verify", "x1*x2,x2*x3", "--json")[1])
    wide = json.loads(
        run_cli(
            "verify", "x1*x2,x2*x3", "--json", "--vars", "x1,x2,x3,x9"
        )[1]
    )
    assert wide["n"] == base["n"] + 1
    assert wide["dim"] == base["dim"] + 1
    assert wide["depth"] == base["depth"] + 1
    assert wide["pd"] == base["pd"]
    assert wide["d_max"] == base["d_max"]


def test_betti_output():
    code, out, _ = run_cli("betti", "x1*x2", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["pd"] == 1
    assert [1, ["x1", "x2"], 1] in payload["entries"]


def test_polarize_output():
    code, out, _ = run_cli("polarize", "x^2,x*y")
    assert code == 0
    assert out.strip() == "x.1*x.2, x.1*y.1"
    payload = json.loads(run_cli("polarize", "x^2,x*y", "--json")[1])
    assert payload["variables"] == ["x.1", "x.2", "y.1"]


def test_exit_codes():
    assert run_cli("pd", "")[0] == 2
    assert run_cli("pd", "x1 +")[0] == 2
    assert run_cli("betti", "x1*x2", "--oracle-cap", "1")[0] == 3
    assert run_cli("pd", "x1*x2", "--field", "4")[0] == 2
    code, _, err = run_cli("gen", "tree", "--n", "1")
    assert code == 2 and "n >=" in err


def test_redundant_generator_warning():
    code, out, err = run_cli("pd", "x1*x2, x1*x2*x3")
    assert code == 0
    assert "redundant" in err


def test_gen_deterministic():
    first = run_cli("gen", "tree", "--n", "6", "--count", "3", "--seed", "9")
    second = run_cli("gen", "tree", "--n", "6", "--count", "3", "--seed", "9")
    assert first == second
    assert first[0] == 0
    assert len(first[1].strip().splitlines()) == 3


def test_gen_output_reparses():
    code, out, _ = run_cli(
        "gen", "random_monomial", "--n", "3", "--count", "2", "--seed", "5"
    )
    assert code == 0
    for line in out.strip().splitlines():
        assert run_cli("pd", line)[0] == 0


def test_batch_csv_deterministic():
    args = (
        "batch", "tree", "--n", "5", "--count", "4", "--seed", "2",
        "--field", "3", "--oracle",
    )
    first = run_cli(*args)
    second = run_cli(*args)
    assert first == second
    code, out, _ = first
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == (
        "kind,seed,n,gens,field,d_min,d_max,dim,depth,pd,pd_oracle,"
        "is_cm,is_scm,ineq_depth,ineq_pd,scm_equality,oracle_agrees"
    )
    assert len(lines) == 5
    for line in lines[1:]:
        cells = line.split(",")
        assert cells[0] == "tree"
        assert cells[4] == "3"
        assert cells[15] == "true"  # scm_equality holds on trees
        assert cells[16] == "true"  # oracle agrees


def test_batch_json_lines():
    code, out, _ = run_cli(
        "batch", "cycle", "--n", "5", "--count", "1", "--json"
    )
    assert code == 0
    row = json.loads(out.strip())
    assert row["kind"] == "cycle"
    assert row["pd"] == 3
    assert row["pd_oracle"] is None
    assert row["scm_equality"] is True


@pytest.mark.parametrize("flags, enumerations", [((), 1), (("--oracle",), 1)])
def test_verify_enumerates_covers_once(monkeypatch, flags, enumerations):
    """verify reads the primes and the Stanley-Reisner complex off one cover
    enumeration; the oracle lists its faces itself and enumerates none."""
    calls = count_calls(monkeypatch, bitsets, "minimal_transversals")
    code, out, _ = run_cli("verify", "x1*x2,x2*x3,x3*x4,x1*x4", *flags)
    assert code == 0 and "minimal_primes: {x1,x3}, {x2,x4}" in out
    assert len(calls) == enumerations


def test_parser_reuse_matches_fresh_parser():
    """The parser is built once per process; a call after a failed call, or
    after one with other flags, prints what it prints on a fresh parser."""
    ideal = "x1*x2,x2*x3,x3*x4"
    calls = [
        ("verify", ideal, "--json", "--oracle"),
        ("verify", ideal, "--field", "4"),
        ("verify", ideal, "--json"),
        ("pd", ideal, "--field", "3"),
        ("primes", ideal, "--json"),
    ]
    reused = [run_cli(*argv)[:2] for argv in calls]
    assert build_parser() is build_parser()
    fresh = []
    for argv in calls:
        build_parser.cache_clear()
        fresh.append(run_cli(*argv)[:2])
    assert reused == fresh
    assert [code for code, _ in reused] == [0, 2, 0, 0, 0]
    assert json.loads(reused[0][1])["pd_oracle"] == 2
    assert json.loads(reused[2][1])["pd_oracle"] is None


@pytest.mark.parametrize(
    "command, expected", [("primes", "{x}\n"), ("dim", "1\n")], ids=["primes", "dim"]
)
def test_radical_commands_do_not_polarize(monkeypatch, command, expected):
    """primes and dim read the radical, so a non-square-free input is never
    polarized for them."""
    calls = count_calls(monkeypatch, polarization, "polarize")
    assert run_cli(command, "x^2, x*y") == (0, expected, "")
    assert calls == []


@pytest.mark.parametrize(
    "argv, flag",
    [
        (("random_squarefree", "--n", "5", "--max-gens", "0"), "--max-gens"),
        (("random_squarefree", "--n", "5", "--max-gens", "-1"), "--max-gens"),
        (("random_monomial", "--n", "4", "--max-exp", "0"), "--max-exp"),
        (("simplicial_tree", "--n", "6", "--max-facet", "0"), "--max-facet"),
        (("simplicial_tree", "--n", "6", "--max-facet", "1"), "--max-facet"),
    ],
)
def test_family_extras_out_of_range_exit_2(argv, flag):
    code, out, err = run_cli("gen", *argv)
    assert (code, out) == (2, "")
    assert err.startswith(f"error: {flag} must be >= ")

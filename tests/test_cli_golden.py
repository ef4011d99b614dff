"""Exact stdout of every ideal command, in text and --json, on a square-free
input whose variable list has an unused entry and on an input that has to be
polarized.  The expected strings are recorded output: a change here is a
change of what users see."""
import pytest

from test_cli import run_cli

CASES = {
    "squarefree": ("x1*x2, x2*x3", "--vars", "x1,x2,x3,x4"),
    "polarized": ("x^2, x*y",),
}

EXPECTED = {
    ('squarefree', 'pd', 'text'): '2\n',
    ('squarefree', 'pd', 'json'): '{"pd": 2, "field": 2}\n',
    ('squarefree', 'depth', 'text'): '2\n',
    ('squarefree', 'depth', 'json'): '{"depth": 2, "field": 2}\n',
    ('squarefree', 'dim', 'text'): '3\n',
    ('squarefree', 'dim', 'json'): '{"dim": 3, "field": 2}\n',
    ('squarefree', 'big-height', 'text'): '2\n',
    ('squarefree', 'big-height', 'json'): '{"big_height": 2, "field": 2}\n',
    ('squarefree', 'primes', 'text'): (
        '{x2}\n'
        '{x1,x3}\n'
    ),
    ('squarefree', 'primes', 'json'): (
        '{"minimal_primes": [["x2"], ["x1", "x3"]], "d_min": 1, '
        '"d_max": 2}\n'
    ),
    ('squarefree', 'is-cm', 'text'): 'false\n',
    ('squarefree', 'is-cm', 'json'): '{"is_cm": false, "field": 2}\n',
    ('squarefree', 'is-scm', 'text'): 'true\n',
    ('squarefree', 'is-scm', 'json'): '{"is_scm": true, "field": 2}\n',
    ('squarefree', 'betti', 'text'): (
        'beta[0, {}] = 1\n'
        'beta[1, {x1,x2}] = 1\n'
        'beta[1, {x2,x3}] = 1\n'
        'beta[2, {x1,x2,x3}] = 1\n'
        'pd = 2\n'
    ),
    ('squarefree', 'betti', 'json'): (
        '{"n": 4, "field": 2, "pd": 2, "entries": [[0, [], 1], [1, '
        '["x1", "x2"], 1], [1, ["x2", "x3"], 1], [2, ["x1", "x2", '
        '"x3"], 1]]}\n'
    ),
    ('squarefree', 'polarize', 'text'): 'x1.1*x2.1, x2.1*x3.1\n',
    ('squarefree', 'polarize', 'json'): (
        '{"variables": ["x1.1", "x2.1", "x3.1", "x4.1"], '
        '"generators": [["x1.1", "x2.1"], ["x2.1", "x3.1"]]}\n'
    ),
    ('squarefree', 'verify', 'text'): (
        'n: 4\n'
        'd_min: 1\n'
        'd_max: 2\n'
        'dim: 3\n'
        'depth: 2\n'
        'pd: 2\n'
        'pd_oracle: -\n'
        'is_cm: false\n'
        'is_scm: true\n'
        'field: 2\n'
        'inequality_depth_ok: true\n'
        'inequality_pd_ok: true\n'
        'theorem_equality_ok: true\n'
        'oracle_agrees: -\n'
        'generators: x1*x2, x2*x3\n'
        'minimal_primes: {x2}, {x1,x3}\n'
    ),
    ('squarefree', 'verify', 'json'): (
        '{"n": 4, "d_min": 1, "d_max": 2, "dim": 3, "depth": 2, '
        '"pd": 2, "pd_oracle": null, "is_cm": false, "is_scm": true, '
        '"field": 2, "inequality_depth_ok": true, '
        '"inequality_pd_ok": true, "theorem_equality_ok": true, '
        '"oracle_agrees": null, "generators": [["x1", "x2"], ["x2", '
        '"x3"]], "minimal_primes": [["x2"], ["x1", "x3"]]}\n'
    ),
    ('polarized', 'pd', 'text'): '2\n',
    ('polarized', 'pd', 'json'): '{"pd": 2, "field": 2}\n',
    ('polarized', 'depth', 'text'): '0\n',
    ('polarized', 'depth', 'json'): '{"depth": 0, "field": 2}\n',
    ('polarized', 'dim', 'text'): '1\n',
    ('polarized', 'dim', 'json'): '{"dim": 1, "field": 2}\n',
    ('polarized', 'big-height', 'text'): '2\n',
    ('polarized', 'big-height', 'json'): '{"big_height": 2, "field": 2}\n',
    ('polarized', 'primes', 'text'): '{x}\n',
    ('polarized', 'primes', 'json'): '{"minimal_primes": [["x"]], "d_min": 1, "d_max": 1}\n',
    ('polarized', 'is-cm', 'text'): 'false\n',
    ('polarized', 'is-cm', 'json'): '{"is_cm": false, "field": 2}\n',
    ('polarized', 'is-scm', 'text'): 'true\n',
    ('polarized', 'is-scm', 'json'): '{"is_scm": true, "field": 2}\n',
    ('polarized', 'betti', 'text'): (
        'beta[0, {}] = 1\n'
        'beta[1, {x.1,x.2}] = 1\n'
        'beta[1, {x.1,y.1}] = 1\n'
        'beta[2, {x.1,x.2,y.1}] = 1\n'
        'pd = 2\n'
    ),
    ('polarized', 'betti', 'json'): (
        '{"n": 3, "field": 2, "pd": 2, "entries": [[0, [], 1], [1, '
        '["x.1", "x.2"], 1], [1, ["x.1", "y.1"], 1], [2, ["x.1", '
        '"x.2", "y.1"], 1]]}\n'
    ),
    ('polarized', 'polarize', 'text'): 'x.1*x.2, x.1*y.1\n',
    ('polarized', 'polarize', 'json'): (
        '{"variables": ["x.1", "x.2", "y.1"], "generators": [["x.1", '
        '"x.2"], ["x.1", "y.1"]]}\n'
    ),
    ('polarized', 'verify', 'text'): (
        'n: 3\n'
        'd_min: 1\n'
        'd_max: 2\n'
        'dim: 2\n'
        'depth: 1\n'
        'pd: 2\n'
        'pd_oracle: -\n'
        'is_cm: false\n'
        'is_scm: true\n'
        'field: 2\n'
        'inequality_depth_ok: true\n'
        'inequality_pd_ok: true\n'
        'theorem_equality_ok: true\n'
        'oracle_agrees: -\n'
        'generators: x.1*x.2, x.1*y.1\n'
        'minimal_primes: {x.1}, {x.2,y.1}\n'
    ),
    ('polarized', 'verify', 'json'): (
        '{"n": 3, "d_min": 1, "d_max": 2, "dim": 2, "depth": 1, '
        '"pd": 2, "pd_oracle": null, "is_cm": false, "is_scm": true, '
        '"field": 2, "inequality_depth_ok": true, '
        '"inequality_pd_ok": true, "theorem_equality_ok": true, '
        '"oracle_agrees": null, "generators": [["x.1", "x.2"], '
        '["x.1", "y.1"]], "minimal_primes": [["x.1"], ["x.2", '
        '"y.1"]]}\n'
    ),
}


@pytest.mark.parametrize("case, command, mode", sorted(EXPECTED))
def test_ideal_command_output(case, command, mode):
    flags = ("--json",) if mode == "json" else ()
    code, out, err = run_cli(command, *CASES[case], *flags)
    assert (code, out, err) == (0, EXPECTED[case, command, mode], "")

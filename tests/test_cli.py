import contextlib
import csv
import io
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import cli_reference
from angleworks import cli
from angleworks.angle_engine import angle_table
from angleworks.cli import main, parse_args
from angleworks.exact_scalars import (
    DomainError,
    format_pinumber,
    parse_pinumber,
    pinumber_from_json,
)
from angleworks.polytope_engine import betaprime_polytope_fvector
from angleworks.verify import montecarlo_suite, relations_suite


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_angles_golden(capsys):
    code, out, _ = run_cli(
        capsys, "angles", "--family", "beta", "--n", "4", "--k", "1", "--beta", "-1"
    )
    assert code == 0
    assert "1/8" in out


def test_angles_trivial_triangle(capsys):
    code, out, _ = run_cli(
        capsys, "angles", "--family", "beta", "--n", "3", "--k", "1", "--beta", "5"
    )
    assert code == 0 and "1/2" in out


def test_angles_betaprime(capsys):
    code, out, _ = run_cli(
        capsys, "angles", "--family", "betaprime", "--n", "4", "--k", "2", "--beta", "5/2"
    )
    assert code == 0 and "6/5" in out


def test_fvector_voronoi(capsys):
    code, out, _ = run_cli(capsys, "fvector", "--model", "voronoi", "--d", "3")
    assert code == 0
    assert "96/35 * pi^2" in out
    assert "144/35 * pi^2" in out
    assert "2 + 48/35 * pi^2" in out
    code, out, _ = run_cli(capsys, "fvector", "--model", "voronoi", "--d", "2")
    assert out.count("6") >= 2


def test_fvector_poisson(capsys):
    code, out, _ = run_cli(
        capsys, "fvector", "--model", "poisson", "--d", "3", "--alpha", "2"
    )
    assert code == 0
    for v in ("12", "30", "20"):
        assert v in out


def test_fvector_beta_requires_n(capsys):
    code, out, err = run_cli(capsys, "fvector", "--model", "beta", "--d", "2", "--beta", "0")
    assert code == 2
    assert "error" in err


def test_reitzner_sphere(capsys):
    code, out, _ = run_cli(
        capsys, "reitzner", "--surface", "sphere", "--d", "4", "--k", "0"
    )
    assert code == 0
    assert out.splitlines()[0].startswith("k=0  1 ")


def test_bad_flags_exit_two(capsys):
    code, out, err = run_cli(capsys, "angles", "--family", "hyperbolic", "--n", "4", "--beta", "0")
    assert code == 2 and out == ""
    assert "error: --family must be one of beta, betaprime, got 'hyperbolic'" in err
    # a negative fraction needs the equals sign; without it, it reads as an option
    code, out, err = run_cli(capsys, "angles", "--family", "beta", "--n", "6", "--beta", "-3/2")
    assert code == 2 and out == ""
    assert "error: --beta expects a value; write --beta=VALUE" in err
    code, _, err = run_cli(
        capsys, "angles", "--family", "beta", "--n", "6", "--k", "1", "--beta=-3/2"
    )
    assert code == 2 and "error" in err


def test_decimal_beta_routes_numeric_with_notice(capsys):
    code, out, err = run_cli(
        capsys, "angles", "--family", "beta", "--n", "4", "--k", "1", "--beta", "-1.0"
    )
    assert code == 0
    assert "notice" in err
    assert "numeric" in out
    val = float(out.splitlines()[1].split()[1])
    assert abs(val - 0.125) < 1e-9


@pytest.mark.parametrize("alpha", ["1/2", "3/2"])
def test_fractional_poisson_alpha_routes_numeric_with_notice(capsys, alpha):
    # the exact Poisson path needs an integer alpha, not a half-integer
    code, out, err = run_cli(capsys, "fvector", "--model", "poisson", "--d", "3", "--alpha", alpha)
    assert code == 0
    assert f"notice: alpha={alpha} is not an integer; using numeric evaluation" in err
    assert "numeric" in out
    _, decimal_out, _ = run_cli(
        capsys, "fvector", "--model", "poisson", "--d", "3", "--alpha", str(float(Fraction(alpha)))
    )
    assert out == decimal_out


def test_numeric_flag_forces_quadrature(capsys):
    code, out, _ = run_cli(
        capsys, "angles", "--family", "beta", "--n", "4", "--k", "1",
        "--beta", "-1", "--numeric",
    )
    assert code == 0
    assert "numeric" in out
    val = float(out.splitlines()[1].split()[1])
    assert abs(val - 0.125) < 1e-9


def test_json_output_schema(capsys):
    code, out, _ = run_cli(
        capsys,
        "angles", "--family", "beta", "--n", "5", "--beta", "-1",
        "--format", "json", "--digits", "10",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["command"] == "angles"
    assert doc["parameters"]["n"] == 5
    recs = doc["records"]
    assert [r["index"] for r in recs] == [1, 2, 3, 4, 5]
    for r in recs:
        assert set(r) == {"index", "text", "provenance", "exact", "float", "decimal"}
        if r["exact"] is not None:
            for term in r["exact"]:
                assert set(term) == {"half_exp", "num", "den"}
    # round-trip the exact JSON form
    from angleworks.exact_scalars import pinumber_from_json
    from angleworks.angle_engine import bJ_exact

    assert pinumber_from_json(recs[0]["exact"]) == bJ_exact(5, 1, -2)


@pytest.mark.parametrize("fmt", ["plain", "csv", "latex", "json"])
def test_exact_values_past_the_int_string_limit(capsys, fmt):
    # the beta' hull (110, 2, 5/2) has coefficients of about 5,000 digits,
    # past the 4,300 digits to which CPython limits str(int) and int(str)
    fv = betaprime_polytope_fvector(110, 2, Fraction(5, 2))
    sizes = [max(abs(c.numerator), c.denominator) for v in fv.values() for c in v.terms.values()]
    assert max(sizes) > 10**4300
    code, out, err = run_cli(
        capsys, "fvector", "--model", "betaprime", "--n", "110", "--d", "2",
        "--beta", "5/2", "--digits", "10", "--format", fmt,
    )
    assert code == 0, err
    if fmt == "json":
        for rec in json.loads(out)["records"]:
            assert pinumber_from_json(rec["exact"]) == fv.value(rec["index"])
            assert parse_pinumber(rec["text"]) == fv.value(rec["index"])
    elif fmt == "csv":
        # no field is quoted, and each is longer than csv.reader takes
        rows = [line.split(",") for line in out.splitlines()[1:]]
        assert [parse_pinumber(r[1]) for r in rows] == list(fv.values())
    else:
        for v in fv.values():
            assert format_pinumber(v) in out


def test_formats_share_decimal_strings(capsys):
    args = ["fvector", "--model", "voronoi", "--d", "3", "--digits", "12"]
    _, plain, _ = run_cli(capsys, *args, "--format", "plain")
    _, csv_out, _ = run_cli(capsys, *args, "--format", "csv")
    _, latex, _ = run_cli(capsys, *args, "--format", "latex")
    rows = list(csv.reader(io.StringIO(csv_out)))
    decimals = [r[2] for r in rows[1:]]
    for dec in decimals:
        assert dec in plain
        assert dec in latex


def test_repeat_invocations_bit_identical(capsys):
    args = ["fvector", "--model", "zerocell", "--d", "5", "--digits", "20"]
    _, out1, _ = run_cli(capsys, *args)
    _, out2, _ = run_cli(capsys, *args)
    assert out1 == out2


def test_verify_relations_small(capsys):
    code, out, _ = run_cli(capsys, "verify", "--suite", "relations", "--max-n", "4")
    assert code == 0
    assert "PASS" in out and "FAIL" not in out


@pytest.mark.parametrize(
    "argv",
    [
        ["angles", "--family", "beta", "--n", "4", "--k", "7", "--beta", "0"],
        ["angles", "--family", "beta", "--n", "4", "--k", "0", "--beta", "0"],
        ["angles", "--family", "beta", "--n", "4", "--beta", "0.3", "--digits", "-1"],
        ["angles", "--family", "beta", "--n", "4", "--beta", "0", "--digits", "0"],
        ["angles", "--family", "beta", "--n", "4", "--beta", "1e400"],
        ["angles", "--family", "beta", "--n", "4", "--beta", "inf"],
        ["angles", "--family", "beta", "--n", "4", "--beta", "nan"],
        ["angles", "--family", "beta", "--n", "4", "--beta", "1/0"],
        ["angles", "--family", "beta", "--n", "-2", "--beta", "0.3"],
        ["fvector", "--model", "beta", "--d", "2", "--n", "4", "--beta", "nan"],
        ["fvector", "--model", "poisson", "--d", "2", "--alpha", "inf"],
        ["reitzner", "--surface", "ball", "--d", "0"],
        ["reitzner", "--surface", "ball", "--d", "3", "--digits", "-1"],
        ["verify", "--suite", "relations", "--max-n", "0"],
        ["verify", "--suite", "relations", "--max-n", "11"],
        ["verify", "--suite", "montecarlo", "--trials", "0"],
        ["verify", "--suite", "montecarlo", "--seed", "-1"],
        ["verify", "--suite", "crosscheck", "--max-n", "50", "--seed", "7"],
        # numeric parameters whose Gamma factors or kernel exponents leave
        # the float range
        ["angles", "--family", "beta", "--n", "5", "--beta", "60.0"],
        ["fvector", "--model", "beta", "--n", "6", "--d", "3", "--beta", "80.5"],
        ["fvector", "--model", "betaprime", "--n", "6", "--d", "3", "--beta", "200.5"],
        ["fvector", "--model", "poisson", "--d", "3", "--alpha", "1e-300"],
        ["fvector", "--model", "beta", "--n", "5", "--d", "3", "--beta", "1e308"],
    ],
)
def test_invalid_input_exits_two_with_message(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert "error: " in err
    assert out == ""


@pytest.mark.parametrize(
    "model, flag",
    [(m, "--alpha") for m in ("voronoi", "zerocell", "beta", "betaprime")]
    + [(m, f) for m in ("voronoi", "zerocell", "poisson") for f in ("--n", "--beta")],
)
def test_fvector_rejects_a_flag_the_model_does_not_use(capsys, model, flag):
    needed = {"poisson": ["--alpha", "2"], "beta": ["--n", "4", "--beta", "0"],
              "betaprime": ["--n", "4", "--beta", "3"]}.get(model, [])
    code, out, err = run_cli(
        capsys, "fvector", "--model", model, "--d", "2", *needed, flag, "3", "--format", "json"
    )
    assert code == 2
    assert f"error: {flag} does not apply to the {model} model" in err
    assert out == ""


@pytest.mark.parametrize(
    "suite, flag",
    [("relations", "--seed"), ("relations", "--trials"), ("crosscheck", "--max-n"),
     ("crosscheck", "--seed"), ("montecarlo", "--max-n")],
)
def test_verify_rejects_an_option_the_suite_does_not_read(capsys, suite, flag):
    code, out, err = run_cli(capsys, "verify", "--suite", suite, flag, "5")
    assert code == 2
    assert f"error: {flag} does not apply to the {suite} suite" in err
    assert out == ""


@pytest.mark.parametrize(
    "suite, flag, default",
    [("crosscheck", "--seed", "42"), ("relations", "--seed", "42"),
     ("crosscheck", "--trials", "20000"), ("relations", "--trials", "20000"),
     ("crosscheck", "--max-n", "8"), ("montecarlo", "--max-n", "8")],
)
def test_verify_rejects_an_unread_option_given_at_its_default(capsys, suite, flag, default):
    code, out, err = run_cli(capsys, "verify", "--suite", suite, flag, default)
    assert code == 2
    assert err.startswith(f"error: {flag} does not apply to the {suite} suite")
    assert out == ""


@pytest.mark.parametrize(
    "argv",
    [
        ["angles", "--family", "beta", "--n", "4", "--beta", "0"],
        ["angles", "--family", "beta", "--n", "4", "--beta", "0.3"],
        ["fvector", "--model", "beta", "--n", "5", "--d", "3", "--beta", "1/3"],
        ["fvector", "--model", "voronoi", "--d", "3"],
        ["reitzner", "--surface", "ball", "--d", "3"],
    ],
)
@pytest.mark.parametrize("digits", ["201", "250"])
def test_digits_cap_holds_on_every_path(capsys, argv, digits):
    code, out, err = run_cli(capsys, *argv, "--digits", digits)
    assert code == 2
    assert "error: digits capped at 200" in err
    assert out == ""


def _run_captured(argv):
    """main() with stdout and stderr captured, for Hypothesis tests, which
    cannot share pytest's function-scoped capsys between examples."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


@st.composite
def _exact_angles_query(draw):
    family = draw(st.sampled_from(["beta", "betaprime"]))
    n = draw(st.integers(1, 8))
    low = -2 if family == "beta" else n  # twice beta: beta >= -1, beta > (n-1)/2
    return family, n, Fraction(draw(st.integers(low, low + 8)), 2)


@settings(max_examples=25, deadline=None, derandomize=True, database=None)
@given(_exact_angles_query())
def test_json_round_trip_of_exact_rows(query):
    family, n, beta = query
    code, out, _ = _run_captured(
        ["angles", "--family", family, "--n", str(n), f"--beta={beta}", "--format", "json"]
    )
    assert code == 0
    table = angle_table(family, n, beta)
    records = json.loads(out)["records"]
    assert [r["index"] for r in records] == list(range(1, n + 1))
    for r in records:
        assert pinumber_from_json(r["exact"]) == table.value(r["index"])
        assert parse_pinumber(r["text"]) == table.value(r["index"])
        assert r["provenance"] == table.provenance(r["index"])


_NON_FINITE = st.one_of(
    st.sampled_from(["inf", "-inf", "+inf", "INF", "Infinity", "-Infinity",
                     "nan", "-nan", "NaN"]),
    st.builds("{}e{}".format, st.integers(-9, 9).filter(bool), st.integers(309, 10**5)),
    st.builds("{}/0".format, st.integers(-50, 50)),
)
_FAMILY = st.sampled_from(["beta", "betaprime"])


@st.composite
def _invalid_argv(draw):
    """One command with exactly one out-of-range or non-finite value."""
    nonpositive = st.integers(-10**6, 0)
    kind = draw(st.sampled_from(
        ["n", "fvector-n", "k", "reitzner-k", "d", "reitzner-d", "digits",
         "trials", "seed", "max-n", "beta", "fvector-beta", "alpha"]
    ))
    if kind == "n":
        return ["angles", "--family", draw(_FAMILY), "--n", str(draw(nonpositive)), "--beta=3"]
    if kind == "fvector-n":  # a beta polytope needs n >= d + 1 points
        d = draw(st.integers(1, 4))
        n = draw(st.integers(-10**6, d))
        return ["fvector", "--model", draw(_FAMILY), "--d", str(d), "--n", str(n), "--beta=3"]
    if kind == "k":
        n = draw(st.integers(1, 8))
        k = draw(st.one_of(nonpositive, st.integers(n + 1, 10**6)))
        return ["angles", "--family", "beta", "--n", str(n), "--k", str(k), "--beta=0"]
    if kind == "reitzner-k":
        d = draw(st.integers(1, 6))
        k = draw(st.one_of(st.integers(-10**6, -1), st.integers(d, 10**6)))
        return ["reitzner", "--surface", "ball", "--d", str(d), "--k", str(k)]
    if kind == "d":
        model = draw(st.sampled_from(["voronoi", "zerocell", "poisson"]))
        alpha = ["--alpha", "2"] if model == "poisson" else []
        return ["fvector", "--model", model, "--d", str(draw(nonpositive))] + alpha
    if kind == "reitzner-d":
        surface = draw(st.sampled_from(["ball", "sphere"]))
        return ["reitzner", "--surface", surface, "--d", str(draw(nonpositive))]
    if kind == "digits":
        command = draw(st.sampled_from([
            ["angles", "--family", "beta", "--n", "4", "--beta=0"],
            ["angles", "--family", "beta", "--n", "4", "--beta=0.3"],
            ["fvector", "--model", "voronoi", "--d", "3"],
            ["reitzner", "--surface", "sphere", "--d", "3"],
        ]))
        return command + ["--digits", str(draw(nonpositive))]
    if kind == "trials":
        return ["verify", "--suite", "montecarlo", "--trials", str(draw(st.integers(-10**6, 1)))]
    if kind == "seed":
        return ["verify", "--suite", "montecarlo", "--seed", str(draw(st.integers(-10**6, -1)))]
    if kind == "max-n":
        max_n = draw(st.one_of(st.integers(-10**6, 1), st.integers(11, 10**6)))
        return ["verify", "--suite", "relations", "--max-n", str(max_n)]
    if kind == "beta":
        return ["angles", "--family", draw(_FAMILY), "--n", "4", f"--beta={draw(_NON_FINITE)}"]
    if kind == "fvector-beta":
        return ["fvector", "--model", draw(_FAMILY), "--d", "2", "--n", "4",
                f"--beta={draw(_NON_FINITE)}"]
    return ["fvector", "--model", "poisson", "--d", "2", f"--alpha={draw(_NON_FINITE)}"]


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(_invalid_argv())
def test_random_invalid_input_exits_two_with_message(argv):
    code, out, err = _run_captured(argv)
    assert code == 2
    assert "error: " in err
    assert out == ""


def test_relations_max_n_above_the_cap_exits_two(capsys):
    code, out, err = run_cli(capsys, "verify", "--suite", "relations", "--max-n", "20")
    assert code == 2 and out == ""
    assert "error: --max-n capped at 10 for the relations suite, got 20" in err


@pytest.mark.parametrize(
    "suite, options, message",
    [
        (relations_suite, {"max_n": 11}, "--max-n capped at 10 for the relations suite, got 11"),
        (relations_suite, {"max_n": 1}, "--max-n must be at least 2, got 1"),
        (montecarlo_suite, {"trials": 1}, "--trials must be at least 2, got 1"),
        (montecarlo_suite, {"seed": -1}, "--seed must be nonnegative, got -1"),
    ],
    ids=["max_n=11", "max_n=1", "trials=1", "seed=-1"],
)
def test_verify_suites_refuse_options_out_of_range(suite, options, message):
    # the library entry points hold the bounds that the CLI reports
    with pytest.raises(DomainError) as exc:
        suite(**options)
    assert str(exc.value) == message


def test_repeat_runs_help_and_usage_errors_are_stable(capsys):
    # main keeps no state between calls: repeats print the same stdout, help
    # and usage errors
    args = ["angles", "--family", "beta", "--n", "5", "--beta", "1/2", "--digits", "12"]
    outs = []
    for _ in range(3):
        code, out, _ = run_cli(capsys, *args)
        assert code == 0
        outs.append(out)
    assert outs[0] == outs[1] == outs[2]
    for argv, status in (
        (["angles", "--help"], 0),
        (["--help"], 0),
        (["angles", "--family", "hyperbolic", "--n", "4", "--beta", "0"], 2),
        (["fvector", "--d", "3"], 2),
    ):
        first = run_cli(capsys, *argv)
        assert first[0] == status
        assert first[2 if status else 1].startswith("usage: " if status == 0 else "error: ")
        for _ in range(2):  # stderr of a run that succeeds carries its timing
            again = run_cli(capsys, *argv)
            assert again[:2] == first[:2] and (status == 0 or again == first)


# What the argparse reference parser (tests/cli_reference.py) and the option
# table must agree on.  Each option lists values it takes, then values the
# parse itself refuses ('-x' and '-3/2' read as options unless written with
# '=').  Values the commands refuse later, such as n = 0, count as taken.
_INTS = (["4", "0", "-2", "12", " 7", "+3"], ["4.5", "x", "", "1e3", "-3/2"])
_PARAMS = (["1/2", "5", "-1", "-1.5", "0.3", "-", "-1 x", ""], ["-3/2", "-x", "-inf"])
_FORMATS = (["plain", "csv", "latex", "json"], ["xml", "PLAIN"])
_FLAG = ([None], ["x", ""])  # a flag takes no value; None: no '=' either
_TABLE_OPTIONS = {
    "angles": {"family": (["beta", "betaprime"], ["hyperbolic", "bet"]), "n": _INTS,
               "k": _INTS, "beta": _PARAMS, "numeric": _FLAG, "format": _FORMATS,
               "digits": _INTS},
    "fvector": {"model": (["voronoi", "zerocell", "poisson", "beta", "betaprime"], ["cube"]),
                "d": _INTS, "alpha": _PARAMS, "beta": _PARAMS, "n": _INTS,
                "format": _FORMATS, "digits": _INTS},
    "reitzner": {"surface": (["ball", "sphere"], ["cube"]), "d": _INTS, "k": _INTS,
                 "digits": _INTS, "format": (["plain", "json"], ["csv"])},
    "verify": {"suite": (["relations", "crosscheck", "montecarlo"], ["all"]), "seed": _INTS,
               "trials": _INTS, "max-n": _INTS},
}
_REQUIRED = {"angles": ("family", "n", "beta"), "fvector": ("model", "d"),
             "reitzner": ("surface", "d"), "verify": ("suite",)}
_STRAYS = ["-h", "--help", "--he", "--help=x", "-hx", "--bogus", "--bogus=1", "-x", "stray",
           "--=x", "-"]


@st.composite
def _option_tokens(draw, command, name):
    taken, refused = _TABLE_OPTIONS[command][name]
    value = draw(st.sampled_from(taken * 6 + refused))
    option = "--" + name
    if draw(st.booleans()):  # a prefix, possibly ambiguous
        option = option[:draw(st.integers(3, len(option)))]
    if value is None:
        return [option]
    if name in _REQUIRED[command] or draw(st.integers(0, 9)):
        return [f"{option}={value}"] if draw(st.booleans()) else [option, value]
    return [option]  # the value left out


@st.composite
def _table_argv(draw):
    command = draw(st.sampled_from(sorted(_TABLE_OPTIONS)))
    names = [n for n in _REQUIRED[command] if draw(st.integers(0, 9))]
    names += draw(st.lists(st.sampled_from(sorted(_TABLE_OPTIONS[command])), max_size=4))
    items = [draw(_option_tokens(command, n)) for n in names]
    if not draw(st.integers(0, 3)):
        items += [[t] for t in draw(st.lists(st.sampled_from(_STRAYS), min_size=1, max_size=2))]
    items = draw(st.permutations(items))
    lead = draw(st.sampled_from([[]] * 10 + [["--bogus"], ["-h"], ["--he"], ["-x"], ["bogus"]]))
    return lead + [command] + [t for item in items for t in item]


_REFERENCE = cli_reference.build_parser()


def _reference_parse(argv):
    """The reference namespace of ``argv``, or the status it exits with."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            return _REFERENCE.parse_args(argv)
        except SystemExit as exc:
            return exc.code


def _check_against_reference(argv):
    expected = _reference_parse(argv)
    if not isinstance(expected, int):
        got = vars(parse_args(argv))
        given = got.pop("given")  # the one field argparse does not set
        assert got == vars(expected)
        assert given <= set(got) - {"command", "func"}
        return
    if expected == 0:  # help
        code, out, _ = _run_captured(argv)
        assert code == 0 and out.startswith("usage: angleworks")
        return
    with pytest.raises(DomainError):
        parse_args(argv)
    code, out, err = _run_captured(argv)
    assert code == 2
    assert err.startswith("error: ") and "Traceback" not in err
    assert out == ""


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(_table_argv())
def test_option_table_reads_argv_as_argparse_did(argv):
    _check_against_reference(argv)


@pytest.mark.parametrize("argv", [
    [], ["--bogus"], ["-h"], ["--help", "bogus"], ["bogus"], ["-1"], [""], ["--h"],
    ["angles"], ["angles", "-h", "--family", "hyperbolic"],
    ["angles", "--family", "hyperbolic", "-h"], ["angles", "--f", "beta", "-h"],
    ["angles", "--family", "beta", "--n", "4", "--beta=-3/2", "--beta", "1/2"],
    ["angles", "--family", "beta", "--n", "4", "--beta", "-1", "--n", "5", "--nu"],
    ["fvector", "--model", "beta", "--d", "3", "--n=4", "--b", "0", "--f", "json"],
    ["verify", "--s", "relations"], ["verify", "--su", "relations", "--max", "9"],
    ["verify", "--suite", "relations", "--max-n=-3"],
])
def test_option_table_edge_cases_read_as_argparse_did(argv):
    _check_against_reference(argv)


@pytest.mark.parametrize("argv, given", [
    (["verify", "--suite", "crosscheck"], {"suite"}),
    (["verify", "--suite", "crosscheck", "--seed", "42"], {"suite", "seed"}),
    (["verify", "--su=relations", "--max", "8", "--max-n", "8"], {"suite", "max_n"}),
    (["angles", "--family", "beta", "--n", "4", "--beta", "0", "--format", "plain"],
     {"family", "n", "beta", "format"}),
    (["angles", "--family", "beta", "--n", "4", "--beta", "0", "--numeric"],
     {"family", "n", "beta", "numeric"}),
])
def test_parse_args_reports_the_options_argv_gave(argv, given):
    assert parse_args(argv).given == given


def test_cold_process_skips_argparse_and_verify():
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}

    def run(*args):
        return subprocess.run([sys.executable, *args], env=env, capture_output=True,
                              text=True, timeout=120)

    probe = run("-c", "import sys, angleworks.cli as cli\n"
                "code = cli.main(['angles', '--family', 'beta', '--n', '4', '--beta=-1'])\n"
                "print(code, [m for m in ('argparse', 'angleworks.verify') if m in sys.modules])")
    assert probe.returncode == 0, probe.stderr
    assert probe.stdout.splitlines()[-1] == "0 []"
    shown = run("-m", "angleworks.cli", "--help")
    assert shown.returncode == 0
    assert all(f"  {name} " in shown.stdout for name in ("angles", "fvector", "reitzner", "verify"))
    bad = run("-m", "angleworks.cli", "angles", "--family", "beta", "--n", "4", "--beta", "0",
              "--bogus")
    assert bad.returncode == 2 and bad.stdout == ""
    assert bad.stderr == "error: unrecognized arguments: --bogus\n"

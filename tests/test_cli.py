import contextlib
import csv
import io
import json
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from angleworks.angle_engine import angle_table
from angleworks.cli import main
from angleworks.exact_scalars import parse_pinumber, pinumber_from_json


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
    with pytest.raises(SystemExit) as exc:
        main(["angles", "--family", "hyperbolic", "--n", "4", "--beta", "0"])
    assert exc.value.code == 2
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
        ["verify", "--suite", "montecarlo", "--trials", "0"],
        ["verify", "--suite", "montecarlo", "--seed", "-1"],
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
        return ["fvector", "--model", model, "--d", str(draw(nonpositive)), "--alpha", "2"]
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
        return ["verify", "--suite", "relations", "--max-n", str(draw(st.integers(-10**6, 1)))]
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


"""The benchmark's own correctness checks.

Every check is a pure function of a query, the output the program gave for
it and (for float outputs) an exact reference value; it returns a list of
problems, empty when the output is right.  Exact outputs are parsed from
their canonical text into ``{half_exponent: Fraction}`` maps here, so the
relations are checked with plain ``Fraction`` arithmetic and none of the
program's own relation helpers.

* internal angle rows: the Poincare relations
  ``sum_{k>=m} (-1)^k C(k, m) J_k = (-1)^n J_m`` for m = 0..n (J_0 = 0);
* f-vectors: the Euler and Dehn-Sommerville relations;
* external angle rows: I_{n,1} = I_{n,n} = 1;
* inversion sums: exactly zero;
* decimals: the correctly rounded expansion of the exact value;
* float outputs: the same relations within 1e-8, numeric-path values within
  1e-8 of the exact reference, Monte Carlo means within 4 standard errors.

Known gaps, stated rather than hidden: the digits the numeric path prints
beyond what its error bound certifies are not checked, and ``to_float``
is never used as a reference (it loses digits to cancellation).
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import re
from fractions import Fraction

import mpmath

REL_TOL = 1e-8
Z_MAX = 4.0

Exact = dict  # {doubled pi exponent: Fraction}, zero terms dropped


# -- exact values -----------------------------------------------------------------

_TERM = re.compile(r"^(\d+)(?:/(\d+))?(?: \* pi(?:\^(\(-?\d+/2\)|-?\d+))?)?$")


def parse_exact(text: str) -> Exact:
    """Parse the canonical text form (``539/288 * pi^-2 - 1/6``)."""
    text = text.strip()
    if text == "0":
        return {}
    parts = re.split(r" ([+-]) ", text)
    chunks = [("-" if parts[0].startswith("-") else "+", parts[0].lstrip("-"))]
    chunks += list(zip(parts[1::2], parts[2::2]))
    out: dict[int, Fraction] = {}
    for sign, body in chunks:
        m = _TERM.match(body)
        if not m:
            raise ValueError(f"not a canonical exact value: {text!r}")
        coeff = Fraction(int(m.group(1)), int(m.group(2) or 1))
        if sign == "-":
            coeff = -coeff
        if " * pi" not in body:
            e = 0
        elif m.group(3) is None:
            e = 2
        elif m.group(3).startswith("("):
            e = int(m.group(3)[1:-3])
        else:
            e = 2 * int(m.group(3))
        out[e] = out.get(e, Fraction(0)) + coeff
    return {e: c for e, c in out.items() if c}


def exact_from_json(terms: list) -> Exact:
    out: dict[int, Fraction] = {}
    for t in terms:
        e = int(t["half_exp"])
        out[e] = out.get(e, Fraction(0)) + Fraction(int(t["num"]), int(t["den"]))
    return {e: c for e, c in out.items() if c}


def combine(pairs) -> Exact:
    """sum of c * x over (c, x) pairs, c rational, x exact."""
    out: dict[int, Fraction] = {}
    for c, x in pairs:
        for e, v in x.items():
            out[e] = out.get(e, Fraction(0)) + c * v
    return {e: v for e, v in out.items() if v}


def evaluate(x: Exact, dps: int) -> mpmath.mpf:
    with mpmath.workdps(dps):
        total = mpmath.mpf(0)
        for e, c in x.items():
            total += mpmath.mpf(c.numerator) / c.denominator * mpmath.power(mpmath.pi, mpmath.mpf(e) / 2)
        return +total


def decimal_string(x: Exact, digits: int) -> str:
    """Correctly rounded expansion with ``digits`` places (ties to even)."""
    if set(x) <= {0}:
        scaled = round(x.get(0, Fraction(0)) * 10 ** digits)
    else:
        with mpmath.workdps(digits + 40):
            scaled = int(mpmath.nint(evaluate(x, digits + 40) * mpmath.mpf(10) ** digits))
    s = str(abs(scaled)).rjust(digits + 1, "0")
    return f"{'-' if scaled < 0 else ''}{s[:-digits]}.{s[-digits:]}"


# -- relations ----------------------------------------------------------------------


def poincare_problems(row: list, exact: bool) -> list[str]:
    """row = [J_1, ..., J_n]."""
    n = len(row)
    z = [None] + list(row)
    out = []
    for m in range(n + 1):
        terms = [((-1) ** k * math.comb(k, m), z[k]) for k in range(max(m, 1), n + 1)]
        if m >= 1:
            terms.append((-((-1) ** n), z[m]))
        if not _vanishes(terms, exact):
            out.append(f"Poincare relation m={m} fails")
    return out


def fvector_problems(values: list, model: str, exact: bool) -> list[str]:
    """Euler and Dehn-Sommerville; zero cell and Voronoi cell are simple
    polytopes, so their relations hold for the reversed (dual) vector."""
    d = len(values)
    one = {0: Fraction(1)} if exact else 1.0
    z = [one] + (list(reversed(values)) if model in ("voronoi", "zerocell") else list(values))
    out = []
    euler = [((-1) ** ell, values[ell]) for ell in range(d)] + [(-(1 - (-1) ** d), one)]
    if not _vanishes(euler, exact):
        out.append("Euler relation fails")
    for m in range(d + 1):
        terms = [((-1) ** k * math.comb(k, m), z[k]) for k in range(m, d + 1)]
        terms.append((-((-1) ** d), z[m]))
        if not _vanishes(terms, exact):
            out.append(f"Dehn-Sommerville relation m={m} fails")
    return out


def _vanishes(terms, exact: bool) -> bool:
    if exact:
        return not combine(terms)
    total = sum(c * v for c, v in terms)
    scale = max(1.0, sum(abs(c * v) for c, v in terms))
    return abs(total) <= REL_TOL * scale


def close(value: float, ref: float) -> bool:
    return abs(value - ref) <= REL_TOL * max(1.0, abs(ref))


# -- CLI output parsing --------------------------------------------------------------


def _option(argv: list[str], name: str, default=None):
    for i, a in enumerate(argv):
        if a == name and i + 1 < len(argv):
            return argv[i + 1]
        if a.startswith(name + "="):
            return a.split("=", 1)[1]
    return default


def parse_records(argv: list[str], stdout: str) -> list[dict]:
    """Records of an ``angles`` or ``fvector`` run: index, exact (or None),
    float (or None), decimal (or None), provenance."""
    fmt = _option(argv, "--format", "plain")
    digits = _option(argv, "--digits")
    if fmt == "json":
        doc = json.loads(stdout)
        return [
            {"index": r["index"],
             "exact": exact_from_json(r["exact"]) if r["exact"] is not None else None,
             "float": r["float"], "decimal": r["decimal"], "provenance": r["provenance"],
             "text": r["text"]}
            for r in doc["records"]
        ]
    lines = stdout.rstrip("\n").split("\n")
    if fmt == "csv":
        rows = list(csv.reader(lines))[1:]
    elif fmt == "latex":
        rows = [ln[: -len(r" \\")].split(" & ") for ln in lines[2:-1]]
    else:
        rows = [re.split(r"\s{2,}", ln.strip()) for ln in lines[1:]]
    out = []
    for row in rows:
        index, text = int(row[0]), row[1]
        dec = row[2] if digits else None
        numeric = row[-1] == "numeric"
        out.append({"index": index, "exact": None if numeric else parse_exact(text),
                    "float": float(text) if numeric else None, "decimal": dec,
                    "provenance": row[-1], "text": text})
    return out


_REITZNER_LINE = re.compile(r"^k=(\d+)  (.+)  \((.+)\)  angle factor: (.+)$")


def parse_reitzner(argv: list[str], stdout: str) -> list[dict]:
    if _option(argv, "--format", "plain") == "json":
        return [
            {"index": r["index"], "text": r["text"], "decimal": r["decimal"],
             "exact": exact_from_json(r["exact"]) if r["exact"] is not None else None,
             "factor": parse_exact(r["angle_factor"])}
            for r in json.loads(stdout)["records"]
        ]
    out = []
    for ln in stdout.rstrip("\n").split("\n"):
        m = _REITZNER_LINE.match(ln)
        if not m:
            raise ValueError(f"unexpected reitzner line {ln!r}")
        surface = _option(argv, "--surface")
        out.append({"index": int(m.group(1)), "text": m.group(2), "decimal": m.group(3),
                    "exact": parse_exact(m.group(2)) if surface == "sphere" else None,
                    "factor": parse_exact(m.group(4))})
    return out


_PROVENANCE = {"closed", "residue", "fill", "tan_algebra", "numeric"}


def cli_problems(argv: list[str], stdout: str) -> list[str]:
    command = argv[0]
    digits = _option(argv, "--digits")
    if command == "reitzner":
        recs = parse_reitzner(argv, stdout)
        d = int(_option(argv, "--d"))
        out = []
        if [r["index"] for r in recs] != list(range(d)):
            out.append("reitzner: wrong index set")
        out += poincare_problems([r["factor"] for r in recs], exact=True)
        places = int(digits or 12)
        for r in recs:
            if r["exact"] is not None:
                if r["decimal"] != decimal_string(r["exact"], places):
                    out.append(f"reitzner k={r['index']}: decimal is not the rounded exact value")
            elif abs(float(r["text"]) - float(r["decimal"])) > 1e-9 * max(1.0, abs(float(r["text"]))):
                out.append(f"reitzner k={r['index']}: value and decimal disagree")
        if _option(argv, "--surface") == "sphere" and recs and recs[0]["exact"] != {0: Fraction(1)}:
            out.append("reitzner sphere: C*_{d,0} != 1")
        return out
    recs = parse_records(argv, stdout)
    out = []
    if any(r["provenance"] not in _PROVENANCE for r in recs):
        out.append("unknown provenance tag")
    exact = all(r["exact"] is not None for r in recs)
    values = [r["exact"] if exact else r["float"] for r in recs]
    if command == "angles":
        n = int(_option(argv, "--n"))
        if [r["index"] for r in recs] != list(range(1, n + 1)):
            out.append("angles: wrong index set")
        out += poincare_problems(values, exact)
    else:
        d = int(_option(argv, "--d"))
        if [r["index"] for r in recs] != list(range(d)):
            out.append("fvector: wrong index set")
        out += fvector_problems(values, _option(argv, "--model"), exact)
    if digits and exact:
        for r in recs:
            if r["decimal"] != decimal_string(r["exact"], int(digits)):
                out.append(f"record {r['index']}: decimal is not the rounded exact value")
    return out


# -- per-query checks ------------------------------------------------------------------


def reference_keys(query: dict) -> list[tuple]:
    """Exact values a float query is compared with (computed untimed)."""
    a, op = query["args"], query["op"]
    if op == "mc_angle":
        return [("J" if a["family"] == "beta" else "Jt", a["n"], a["k"], a["twice_beta"])]
    if op == "mc_hull":
        return [("hull_f0", a["n"], a["twice_beta"])]
    if op == "cli_numeric":
        argv = a["argv"]
        n = int(_option(argv, "--n"))
        tb = int(2 * Fraction(_option(argv, "--beta")))
        tag = "J" if _option(argv, "--family") == "beta" else "Jt"
        return [(tag, n, k, tb) for k in range(1, n + 1)]
    return []


def ref_id(key: tuple) -> str:
    return ":".join(str(x) for x in key)


def problems(query: dict, result: dict, refs: dict) -> list[str]:
    """Everything wrong with one query's result; empty when it is right."""
    if "error" in result:
        return [f"raised {result['error']}"]
    out = result["output"]
    op, a = query["op"], query["args"]
    if op in ("cli", "cli_numeric"):
        if out["exit"] != 0:
            return [f"exit code {out['exit']}"]
        argv = a["argv"]
        found = cli_problems(argv, out["stdout"])
        if op == "cli_numeric":
            recs = parse_records(argv, out["stdout"])
            for key, r in zip(reference_keys(query), recs):
                if r["float"] is None or not close(r["float"], float(refs[ref_id(key)])):
                    found.append(f"record {r['index']}: numeric {r['float']} vs exact {refs[ref_id(key)]}")
        return found
    if op == "angle_row":
        return poincare_problems(_values(out["values"]), _is_exact(out["values"]))
    if op == "fvector":
        return fvector_problems(_values(out["values"]), a["model"], _is_exact(out["values"]))
    if op == "external_row":
        vals = _values(out["values"])
        return [] if vals[0] == {0: 1} and vals[-1] == {0: 1} else ["I_{n,1} or I_{n,n} is not 1"]
    if op == "inversion":
        return [] if parse_exact(out["value"]) == {} else [f"inversion sum is {out['value']}"]
    if op == "decimal":
        want = decimal_string(parse_exact(out["value"]), a["digits"])
        return [] if out["decimal"] == want else [f"decimal {out['decimal']} != {want}"]
    if op in ("mc_angle", "mc_hull", "mc_voronoi"):
        ref = 6.0 if op == "mc_voronoi" else float(refs[ref_id(reference_keys(query)[0])])
        mean, stderr = out["mean"], out["stderr"]
        if stderr == 0.0:
            return [] if abs(mean - ref) <= 1e-12 else [f"zero-variance estimate {mean} != {ref}"]
        z = abs(mean - ref) / stderr
        return [] if z <= Z_MAX else [f"|z| = {z:.2f} > {Z_MAX} (mean {mean}, exact {ref})"]
    return [f"no check for op {op!r}"]


def _is_exact(values: list) -> bool:
    return all(isinstance(v, str) for v in values)


def _values(values: list) -> list:
    return [parse_exact(v) if isinstance(v, str) else v for v in values]


# -- golden transcript ------------------------------------------------------------------


def transcript_entry(query: dict, result: dict):
    """What the golden transcript keeps for one output: a digest of its
    canonical exact text, or the float values themselves (compared with a
    tolerance, since the last bits of a float may differ between hosts)."""
    out = result["output"]
    if "mean" in out:
        return [out["mean"], out["stderr"]]
    if query["op"] == "cli_numeric":
        return [r["float"] for r in json.loads(out["stdout"])["records"]]
    if "values" in out and not _is_exact(out["values"]):
        return list(out["values"])
    text = out["stdout"] if "stdout" in out else json.dumps(out, sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()[:24]


def golden_problems(query: dict, result: dict, golden: dict) -> list[str]:
    if "error" in result:
        return []  # already counted
    if query["id"] not in golden:
        return ["no golden entry for this query"]
    want, got = golden[query["id"]], transcript_entry(query, result)
    if isinstance(want, list) and isinstance(got, list) and len(want) == len(got):
        if all(abs(g - w) <= 1e-9 * max(1.0, abs(w)) for g, w in zip(got, want)):
            return []
    elif want == got:
        return []
    return ["output differs from the golden transcript"]

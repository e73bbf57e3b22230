"""Command-line surface: angles, fvector, reitzner, verify.

Exact values print in the canonical PiNumber text form by default;
``--digits N`` adds a correctly rounded decimal column.  Exit codes:
0 success, 1 failed verification, 2 invalid parameters.  Timing goes to
stderr so identical invocations stay bit-identical on stdout.
"""

from __future__ import annotations

import argparse
import json
import math
import re
import sys
import time
from fractions import Fraction

from . import verify as verify_mod
from .angle_engine import angle_table
from .exact_scalars import (
    MAX_DECIMAL_DIGITS,
    DomainError,
    PiNumber,
    exact_scaled,
    format_pinumber,
    pinumber_to_json,
    to_decimal,
)
from .polytope_engine import (
    beta_polytope_fvector,
    betaprime_polytope_fvector,
    poisson_polytope_fvector,
    reitzner_ball,
    reitzner_sphere,
    typical_voronoi_fvector,
    zero_cell_fvector,
)

_FRACTION_RE = re.compile(r"^[+-]?\d+(/\d+)?$")


def _parse_parameter(text: str, what: str = "beta", scale: int = 2):
    """P/Q stays exact when ``scale`` times it is an integer (half-integers
    for scale 2, integers for scale 1); anything else routes to the numeric
    path with a notice."""
    try:
        if _FRACTION_RE.match(text):
            q = Fraction(text)
            if exact_scaled(q, scale) is not None:
                return q, True
            kind = "a half-integer" if scale == 2 else "an integer"
            notice = f"{what}={text} is not {kind}; using numeric evaluation"
            v = float(q)
        else:
            notice = f"decimal {what}={text} routes to numeric evaluation"
            v = float(text)
    except (ValueError, ZeroDivisionError, OverflowError):
        raise DomainError(f"cannot parse {what}={text!r}") from None
    if not math.isfinite(v):
        raise DomainError(f"{what}={text} is not a finite number")
    print(f"notice: {notice}", file=sys.stderr)
    return v, False


def _emit_records(args, command: str, params: dict, records: list[dict]) -> None:
    fmt = getattr(args, "format", "plain")
    digits = getattr(args, "digits", None)
    cols = [c for c in ("index", "value", "decimal", "provenance") if
            c != "decimal" or digits]
    if fmt == "json":
        doc = {"command": command, "parameters": params, "records": records}
        print(json.dumps(doc, indent=2))
        return
    rows = []
    for r in records:
        row = [str(r["index"]), r["text"]]
        if digits:
            row.append(r["decimal"])
        row.append(r["provenance"])
        rows.append(row)
    if fmt == "csv":
        print(",".join(cols))
        for row in rows:
            print(",".join(f'"{c}"' if "," in c else c for c in row))
    elif fmt == "latex":
        print(r"\begin{tabular}{" + "l" * len(cols) + "}")
        print(" & ".join(cols) + r" \\ \hline")
        for row in rows:
            print(" & ".join(row) + r" \\")
        print(r"\end{tabular}")
    else:
        widths = [max(len(r[i]) for r in rows + [cols]) for i in range(len(cols))]
        print("  ".join(c.ljust(w) for c, w in zip(cols, widths)))
        for row in rows:
            print("  ".join(c.ljust(w) for c, w in zip(row, widths)))


def _record(index, value, provenance: str, digits) -> dict:
    if isinstance(value, PiNumber):
        text, exact, num = format_pinumber(value), pinumber_to_json(value), None
        decimal = to_decimal(value, digits) if digits else None
    else:
        text, exact, num = repr(float(value)), None, value
        decimal = f"{float(value):.{digits}f}" if digits else None
    return {"index": index, "text": text, "provenance": provenance,
            "exact": exact, "float": num, "decimal": decimal}


def cmd_angles(args) -> int:
    if args.k is not None and not 1 <= args.k <= args.n:
        raise DomainError(f"need 1 <= k <= n, got k={args.k}, n={args.n}")
    beta, exact = _parse_parameter(args.beta, "beta")
    if args.numeric and exact:
        beta = float(beta)
    table = angle_table(args.family, args.n, beta)
    ks = [args.k] if args.k is not None else list(range(1, args.n + 1))
    records = [
        _record(k, table.value(k), table.provenance(k), args.digits) for k in ks
    ]
    params = {"family": args.family, "n": args.n, "beta": str(args.beta)}
    _emit_records(args, "angles", params, records)
    return 0


def cmd_fvector(args) -> int:
    model = args.model
    for flag, models in (("alpha", ("poisson",)), ("n", ("beta", "betaprime")),
                         ("beta", ("beta", "betaprime"))):
        if getattr(args, flag) is not None and model not in models:
            raise DomainError(f"--{flag} does not apply to the {model} model")
    params = {"model": model, "d": args.d}
    if model == "voronoi":
        fv = typical_voronoi_fvector(args.d)
    elif model == "zerocell":
        fv = zero_cell_fvector(args.d)
    elif model == "poisson":
        if args.alpha is None:
            raise DomainError("--alpha required for the poisson model")
        params["alpha"] = str(args.alpha)
        alpha, _ = _parse_parameter(args.alpha, "alpha", 1)
        fv = poisson_polytope_fvector(args.d, alpha)
    elif model in ("beta", "betaprime"):
        if args.beta is None or args.n is None:
            raise DomainError(f"--beta and --n required for the {model} model")
        params.update(beta=str(args.beta), n=args.n)
        beta, _ = _parse_parameter(args.beta, "beta")
        fn = beta_polytope_fvector if model == "beta" else betaprime_polytope_fvector
        fv = fn(args.n, args.d, beta)
    else:
        raise DomainError(f"unknown model {model!r}")
    records = [
        _record(ell, fv.value(ell), fv.provenance(ell), args.digits)
        for ell in range(fv.d)
    ]
    _emit_records(args, "fvector", params, records)
    return 0


def cmd_reitzner(args) -> int:
    if args.d < 1:
        raise DomainError(f"need d >= 1, got d={args.d}")
    digits = args.digits or 12
    ks = [args.k] if args.k is not None else list(range(args.d))
    fn = reitzner_ball if args.surface == "ball" else reitzner_sphere
    records = []
    for k in ks:
        rc = fn(args.d, k)
        if rc.exact is not None:
            text = format_pinumber(rc.exact)
            dec = to_decimal(rc.exact, digits)
        else:
            text = f"{rc.value:.{digits}g}"
            dec = f"{rc.value:.{digits}f}"
        records.append(
            {
                "index": k,
                "text": text,
                "decimal": dec,
                "provenance": "exact" if rc.exact is not None else "float",
                "exact": pinumber_to_json(rc.exact) if rc.exact is not None else None,
                "float": rc.value,
                "angle_factor": format_pinumber(rc.angle_factor),
            }
        )
    if args.format == "json":
        _emit_records(args, "reitzner", {"surface": args.surface, "d": args.d}, records)
        return 0
    for r in records:
        print(
            f"k={r['index']}  {r['text']}  ({r['decimal']})  "
            f"angle factor: {r['angle_factor']}"
        )
    return 0


def cmd_verify(args) -> int:
    if args.max_n < 2:
        raise DomainError(f"--max-n must be at least 2, got {args.max_n}")
    if args.trials < 2:
        raise DomainError(f"--trials must be at least 2, got {args.trials}")
    if args.seed < 0:
        raise DomainError(f"--seed must be nonnegative, got {args.seed}")
    suite = verify_mod.SUITES[args.suite]
    if args.suite == "relations":
        results = suite(max_n=args.max_n)
    elif args.suite == "montecarlo":
        results = suite(seed=args.seed, trials=args.trials)
    else:
        results = suite()
    failed = 0
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        print(f"{status}  {r.name}" + (f"  [{r.detail}]" if r.detail else ""))
        failed += 0 if r.passed else 1
    print(f"{len(results) - failed}/{len(results)} checks passed")
    return 1 if failed else 0


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="angleworks",
        description="Exact expected angles of random simplices and f-vectors of random polytopes",
    )
    sub = p.add_subparsers(dest="command", required=True)

    a = sub.add_parser("angles", help="expected internal angle sums")
    a.add_argument("--family", choices=("beta", "betaprime"), required=True)
    a.add_argument("--n", type=int, required=True)
    a.add_argument("--k", type=int)
    a.add_argument("--beta", required=True, help="exact fraction P/Q or decimal")
    a.add_argument("--numeric", action="store_true", help="force the quadrature path")
    a.add_argument("--format", choices=("plain", "csv", "latex", "json"), default="plain")
    a.add_argument("--digits", type=int)
    a.set_defaults(func=cmd_angles)

    f = sub.add_parser("fvector", help="expected f-vectors of random polytopes")
    f.add_argument(
        "--model",
        choices=("voronoi", "zerocell", "poisson", "beta", "betaprime"),
        required=True,
    )
    f.add_argument("--d", type=int, required=True)
    f.add_argument("--alpha", help="poisson model concentration (integer = exact)")
    f.add_argument("--beta", help="beta/betaprime parameter, P/Q or decimal")
    f.add_argument("--n", type=int, help="number of sample points (beta models)")
    f.add_argument("--format", choices=("plain", "csv", "latex", "json"), default="plain")
    f.add_argument("--digits", type=int)
    f.set_defaults(func=cmd_fvector)

    r = sub.add_parser("reitzner", help="Reitzner constants C_{d,k} and C*_{d,k}")
    r.add_argument("--surface", choices=("ball", "sphere"), required=True)
    r.add_argument("--d", type=int, required=True)
    r.add_argument("--k", type=int)
    r.add_argument("--digits", type=int)
    r.add_argument("--format", choices=("plain", "json"), default="plain")
    r.set_defaults(func=cmd_reitzner)

    v = sub.add_parser("verify", help="run a verification suite")
    v.add_argument("--suite", choices=("relations", "crosscheck", "montecarlo"), required=True)
    v.add_argument("--seed", type=int, default=42)
    v.add_argument("--trials", type=int, default=20000)
    v.add_argument("--max-n", type=int, default=8, dest="max_n")
    v.set_defaults(func=cmd_verify)
    return p


_parser: argparse.ArgumentParser | None = None  # main's parser, built on its first call


def main(argv=None) -> int:
    global _parser
    if _parser is None:
        _parser = build_parser()
    args = _parser.parse_args(argv)
    t0 = time.perf_counter()
    try:
        digits = getattr(args, "digits", None)
        if digits is not None and digits < 1:
            raise DomainError(f"--digits must be positive, got {digits}")
        if digits is not None and digits > MAX_DECIMAL_DIGITS:
            raise DomainError(f"digits capped at {MAX_DECIMAL_DIGITS}")
        code = args.func(args)
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(f"[{1000 * (time.perf_counter() - t0):.1f} ms]", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())

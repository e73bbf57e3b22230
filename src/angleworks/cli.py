"""Command-line surface: angles, fvector, reitzner, verify.

Exact values print in the canonical PiNumber text form by default;
``--digits N`` adds a correctly rounded decimal column.  Exit codes:
0 success, 1 failed verification, 2 invalid parameters.  Timing goes to
stderr so identical invocations stay bit-identical on stdout.

One table, ``_COMMANDS``, lists each command's options; it drives both the
parse and ``-h``/``--help``.  Options read as argparse reads them:
``--opt value`` or ``--opt=value``, any unique prefix of an option name,
and the last of a repeated option wins.  A value that starts with ``-`` and
is not a negative number needs the equals sign (``--beta=-3/2``).  A usage
error raises ``DomainError``, so ``main`` reports it like every other bad
input: ``error: ...`` on stderr and return 2.
"""

from __future__ import annotations

import inspect
import json
import math
import re
import sys
import time
from fractions import Fraction
from types import SimpleNamespace

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


def _record(index, value, provenance: str, args) -> dict:
    """One output row; the JSON form of an exact value only for
    ``--format json``, the one format that prints it."""
    digits = args.digits
    if isinstance(value, PiNumber):
        text, num = format_pinumber(value), None
        exact = pinumber_to_json(value) if args.format == "json" else None
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
        _record(k, table.value(k), table.provenance(k), args) for k in ks
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
        _record(ell, fv.value(ell), fv.provenance(ell), args)
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
    records, json_out = [], args.format == "json"
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
                "exact": pinumber_to_json(rc.exact) if json_out and rc.exact is not None else None,
                "float": rc.value,
                "angle_factor": format_pinumber(rc.angle_factor),
            }
        )
    if json_out:
        _emit_records(args, "reitzner", {"surface": args.surface, "d": args.d}, records)
        return 0
    for r in records:
        print(
            f"k={r['index']}  {r['text']}  ({r['decimal']})  "
            f"angle factor: {r['angle_factor']}"
        )
    return 0


def cmd_verify(args) -> int:
    from . import verify  # only verify runs read it

    suite = verify.SUITES[args.suite]
    reads = inspect.signature(suite).parameters
    unread = [name for name, _, _, required, default, _ in _COMMANDS["verify"][2]
              if not required and name.replace("-", "_") not in reads
              and getattr(args, name.replace("-", "_")) != default]
    if unread:
        raise DomainError(f"--{unread[0]} does not apply to the {args.suite} suite")
    results = suite(**{name: getattr(args, name) for name in reads})
    failed = 0
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        print(f"{status}  {r.name}" + (f"  [{r.detail}]" if r.detail else ""))
        failed += 0 if r.passed else 1
    print(f"{len(results) - failed}/{len(results)} checks passed")
    return 1 if failed else 0


#: Every command and its options, in help order: the one description from
#: which ``parse_args`` reads an argv and ``--help`` is printed.  A command
#: is (function, help, options); an option is (name, type, choices,
#: required, default, help), where the type is ``int`` or ``str``, or
#: ``bool`` for a flag that takes no value.
_COMMANDS = {
    "angles": (cmd_angles, "expected internal angle sums", (
        ("family", str, ("beta", "betaprime"), True, None, "law of the vertices"),
        ("n", int, None, True, None, "number of vertices"),
        ("k", int, None, False, None, "one k-vertex face count (all k = 1..n if omitted)"),
        ("beta", str, None, True, None, "exact fraction P/Q or decimal"),
        ("numeric", bool, None, False, False, "force the quadrature path"),
        ("format", str, ("plain", "csv", "latex", "json"), False, "plain", "output format"),
        ("digits", int, None, False, None, "add a decimal column to this many digits"),
    )),
    "fvector": (cmd_fvector, "expected f-vectors of random polytopes", (
        ("model", str, ("voronoi", "zerocell", "poisson", "beta", "betaprime"), True, None,
         "polytope model"),
        ("d", int, None, True, None, "dimension"),
        ("alpha", str, None, False, None, "poisson model concentration (integer = exact)"),
        ("beta", str, None, False, None, "beta/betaprime parameter, P/Q or decimal"),
        ("n", int, None, False, None, "number of sample points (beta models)"),
        ("format", str, ("plain", "csv", "latex", "json"), False, "plain", "output format"),
        ("digits", int, None, False, None, "add a decimal column to this many digits"),
    )),
    "reitzner": (cmd_reitzner, "Reitzner constants C_{d,k} and C*_{d,k}", (
        ("surface", str, ("ball", "sphere"), True, None, "convex body"),
        ("d", int, None, True, None, "dimension"),
        ("k", int, None, False, None, "one face dimension (all k = 0..d-1 if omitted)"),
        ("digits", int, None, False, None, "decimal digits (default 12)"),
        ("format", str, ("plain", "json"), False, "plain", "output format"),
    )),
    "verify": (cmd_verify, "run a verification suite", (
        ("suite", str, ("relations", "crosscheck", "montecarlo"), True, None, "suite to run"),
        ("seed", int, None, False, 42, "Monte Carlo seed"),
        ("trials", int, None, False, 20000, "Monte Carlo trials"),
        ("max-n", int, None, False, 8, "largest n of the relations suite, at most 10"),
    )),
}
_HELP = ("-h", "--help")


def _read_option(token: str, names) -> tuple[str | None, str | None] | None:
    """How argparse reads ``token`` against the option strings ``names``.

    None for a value, else (option, its ``=`` value or None); the option is
    None for an option-like token that names none.  A long option may be cut
    to any unique prefix; ``-h`` is the only short option, and takes the rest
    of its token as a value.  A token that starts with ``-`` is a value only
    when it is ``-``, a negative number or holds a space.
    """
    if not token.startswith("-") or token == "-":
        return None
    if token in names:
        return token, None
    head, eq, tail = token.partition("=")
    if eq and head in names:
        return head, tail
    if token == "--":
        return None, None
    if token.startswith("--"):
        found = [(name, tail if eq else None) for name in names if name.startswith(head)]
    else:
        found = [(name, token[2:]) for name in names if name == token[:2]]
    if len(found) > 1:
        raise DomainError(f"ambiguous option {token}: could match "
                          + ", ".join(name for name, _ in found))
    if found:
        return found[0]
    if re.fullmatch(r"-\d+|-\d*\.\d+", token) or " " in token:
        return None
    return None, None


def parse_args(argv: list[str]) -> SimpleNamespace:
    """The command of ``argv`` and every one of its options, read from
    ``_COMMANDS`` as argparse would read them; a usage error raises
    ``DomainError``.

    ``--opt value`` and ``--opt=value`` both work, the last of a repeated
    option wins, and errors come in argparse's order: an ambiguous prefix
    first, then the first bad value from the left, then a missing required
    option, then any token left over.  A help request before the first error
    returns a namespace whose ``func`` prints the help.
    """
    stray = []
    for at, token in enumerate(argv):
        read = _read_option(token, _HELP)
        if read is None:
            break
        option, value = read
        if option is None:
            stray.append(token)
        elif value is not None:
            raise DomainError(f"{option} takes no value, got {token!r}")
        else:
            return SimpleNamespace(command=None, func=_print_help)
    else:
        raise DomainError("missing command; choose from " + ", ".join(_COMMANDS))
    command = argv[at]
    if command not in _COMMANDS:
        raise DomainError(f"unknown command {command!r}; choose from " + ", ".join(_COMMANDS))
    func, _, options = _COMMANDS[command]
    spec = {"--" + opt[0]: opt for opt in options}
    tokens = argv[at + 1:]
    reads = [_read_option(token, (*_HELP, *spec)) for token in tokens]
    values = {name.replace("-", "_"): default for name, _, _, _, default, _ in options}
    i = 0
    while i < len(tokens):
        token, read = tokens[i], reads[i]
        i += 1
        if read is None or read[0] is None:
            stray.append(token)
            continue
        option, value = read
        if option in _HELP or spec[option][1] is bool:
            if value is not None:
                raise DomainError(f"{option} takes no value, got {token!r}")
            if option in _HELP:
                return SimpleNamespace(command=command, func=_print_help)
            value = True
        elif value is None:
            if i == len(tokens) or reads[i] is not None:
                raise DomainError(f"{option} expects a value; write {option}=VALUE "
                                  "for one that starts with '-'")
            value = tokens[i]
            i += 1
        name, kind, choices, _, _, _ = spec[option]
        if kind is int:
            try:
                value = int(value)
            except ValueError:
                raise DomainError(f"{option} expects an integer, got {value!r}") from None
        if choices and value not in choices:
            raise DomainError(f"{option} must be one of {', '.join(choices)}, got {value!r}")
        values[name.replace("-", "_")] = value
    # a required option has no default, and a value read is never None
    missing = [f"--{name}" for name, _, _, required, _, _ in options
               if required and values[name.replace("-", "_")] is None]
    if missing:
        raise DomainError(f"{command} needs " + ", ".join(missing))
    if stray:
        raise DomainError("unrecognized arguments: " + " ".join(stray))
    return SimpleNamespace(command=command, func=func, **values)


def _metavar(name: str, choices) -> str:
    return "{" + ",".join(choices) + "}" if choices else name.upper().replace("-", "_")


def _print_help(args) -> int:
    if args.command is None:
        print("usage: angleworks {" + ",".join(_COMMANDS) + "} [options]\n\n"
              "Exact expected angles of random simplices and f-vectors of random polytopes\n\n"
              "commands:")
        for name, (_, text, _) in _COMMANDS.items():
            print(f"  {name:<10}{text}")
        print("\nRun 'angleworks COMMAND --help' for the options of one command.")
        return 0
    _, text, options = _COMMANDS[args.command]
    usage = [f"--{name} {_metavar(name, choices)}"
             for name, _, choices, required, _, _ in options if required]
    print(f"usage: angleworks {args.command} {' '.join(usage)} [options]\n\n{text}\n\noptions:")
    rows = [("-h, --help", "show this help and exit")]
    for name, kind, choices, required, default, help_text in options:
        flag = f"--{name}" if kind is bool else f"--{name} {_metavar(name, choices)}"
        if required:
            help_text += " (required)"
        elif default not in (None, False):
            help_text += f" (default {default})"
        rows.append((flag, help_text))
    for flag, help_text in rows:
        print(f"  {flag:<28}{help_text}" if len(flag) < 28 else f"  {flag}\n  {'':<28}{help_text}")
    print("\nAn option name may be cut to any unique prefix.  Write --option=VALUE for\n"
          "a value that starts with '-' and is not a negative number, as in --beta=-3/2.")
    return 0


def main(argv=None) -> int:
    t0 = time.perf_counter()
    try:
        args = parse_args(sys.argv[1:] if argv is None else list(argv))
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

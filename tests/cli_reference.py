"""The argparse parser that ``angleworks.cli`` used before its option table,
kept as the reference that ``tests/test_cli.py`` compares ``parse_args``
against."""

import argparse

from angleworks.cli import cmd_angles, cmd_fvector, cmd_reitzner, cmd_verify


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

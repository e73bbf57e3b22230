"""A canonical dump of the exact engine, and its sha256.

Every exact value is printed with its provenance tag, one line per entry:

    <quantity> <parameters> <index> <tag> <e>:<num>/<den> ...

with one ``e:num/den`` term per nonzero coefficient of pi^(e/2), e
ascending, and num and den in hexadecimal (``str(int)`` is limited to 4,300
digits, hexadecimal is not).  A refactor or a faster kernel must leave the
dump, and so its sha256, unchanged.

The dump covers
  - the typical Poisson-Voronoi cell and the Poisson zero cell, d <= 22;
  - the beta rows n <= 19 at beta in {-1, -1/2, 0, 1/2, 1}, and the beta'
    rows n <= 19 at beta = (n - 1 + t)/2, t = 1..5;
  - the Poisson polytope, d <= 12 and alpha <= 3;
  - the beta hulls at beta in {0, 1/2} and the beta' hulls at
    beta = (d + 1)/2 and (d + 2)/2, d <= 10 and n in {d+1, d+2, d+4}.

Run it as a script to print the dump's sha256 (and with ``--print`` the
dump itself):

    PYTHONPATH=src python tests/exact_dump.py [--print]
"""

from __future__ import annotations

import argparse
import hashlib
from fractions import Fraction
from typing import Iterator

from angleworks import (
    angle_table,
    beta_polytope_fvector,
    betaprime_polytope_fvector,
    poisson_polytope_fvector,
    typical_voronoi_fvector,
    zero_cell_fvector,
)

CELL_D, ROW_N, POISSON_D, HULL_D = 22, 19, 12, 10


def _value(x) -> str:
    return " ".join(f"{e}:{c.numerator:x}/{c.denominator:x}" for e, c in sorted(x.terms.items()))


def _entries(label: str, entries) -> Iterator[str]:
    for i, (value, tag) in enumerate(entries):
        yield f"{label} {i} {tag} {_value(value)}"


def dump_lines() -> Iterator[str]:
    """The dump, one line per exact entry, in a fixed order."""
    for d in range(1, CELL_D + 1):
        yield from _entries(f"voronoi d={d}", typical_voronoi_fvector(d).entries)
        yield from _entries(f"zerocell d={d}", zero_cell_fvector(d).entries)
    for n in range(1, ROW_N + 1):
        for beta in (Fraction(-1), Fraction(-1, 2), Fraction(0), Fraction(1, 2), Fraction(1)):
            yield from _entries(f"beta n={n} beta={beta}", angle_table("beta", n, beta).entries)
        for t in range(1, 6):
            beta = Fraction(n - 1 + t, 2)
            yield from _entries(
                f"betaprime n={n} beta={beta}", angle_table("betaprime", n, beta).entries
            )
    for d in range(1, POISSON_D + 1):
        for alpha in (1, 2, 3):
            yield from _entries(
                f"poisson d={d} alpha={alpha}", poisson_polytope_fvector(d, alpha).entries
            )
    for d in range(1, HULL_D + 1):
        for n in (d + 1, d + 2, d + 4):
            for beta in (Fraction(0), Fraction(1, 2)):
                fv = beta_polytope_fvector(n, d, beta)
                yield from _entries(f"beta-hull n={n} d={d} beta={beta}", fv.entries)
            for beta in (Fraction(d + 1, 2), Fraction(d + 2, 2)):
                fv = betaprime_polytope_fvector(n, d, beta)
                yield from _entries(f"betaprime-hull n={n} d={d} beta={beta}", fv.entries)


def dump_text() -> str:
    return "".join(line + "\n" for line in dump_lines())


def dump_digest() -> str:
    return hashlib.sha256(dump_text().encode()).hexdigest()


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--print", action="store_true", help="print the dump before its sha256")
    args = parser.parse_args()
    text = dump_text()
    if args.print:
        print(text, end="")
    print(f"{hashlib.sha256(text.encode()).hexdigest()}  {text.count(chr(10))} lines")


if __name__ == "__main__":
    main()

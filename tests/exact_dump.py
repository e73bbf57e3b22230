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

The wide dump reaches past it, into the sizes where a kernel rewrite can
go wrong without the committed dump noticing:
  - the typical Poisson-Voronoi cell and the Poisson zero cell, d <= 32;
  - the beta rows n <= 32 at beta in {0, 1/2};
  - the same four hull families, d <= 12 and n in {d+1, d+2, d+4, 4d};
  - the many-point hulls: beta (100, 6, 0) and beta' (110, 2, 5/2).
It takes about 15 s on a 2-core machine and stays out of the test suite;
its sha256 is pinned in ``WIDE_DIGEST``.

Run it as a script to print the dump's sha256 (and with ``--print`` the
dump itself); ``--wide`` takes the wide dump instead and exits 1 unless its
sha256 is ``WIDE_DIGEST``:

    PYTHONPATH=src python tests/exact_dump.py [--wide] [--print]
"""

from __future__ import annotations

import argparse
import hashlib
import sys
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
WIDE_CELL_D, WIDE_ROW_N, WIDE_HULL_D = 32, 32, 12
WIDE_DIGEST = "5585cc4c65086b317a4fde2e07817ab23b0c1861ccc40b9788891305d258ae1e"


def _value(x) -> str:
    return " ".join(f"{e}:{c.numerator:x}/{c.denominator:x}" for e, c in sorted(x.terms.items()))


def _entries(label: str, entries) -> Iterator[str]:
    for i, (value, tag) in enumerate(entries):
        yield f"{label} {i} {tag} {_value(value)}"


def _cells(max_d: int) -> Iterator[str]:
    for d in range(1, max_d + 1):
        yield from _entries(f"voronoi d={d}", typical_voronoi_fvector(d).entries)
        yield from _entries(f"zerocell d={d}", zero_cell_fvector(d).entries)


def _hulls(d: int, ns) -> Iterator[str]:
    for n in ns:
        for beta in (Fraction(0), Fraction(1, 2)):
            fv = beta_polytope_fvector(n, d, beta)
            yield from _entries(f"beta-hull n={n} d={d} beta={beta}", fv.entries)
        for beta in (Fraction(d + 1, 2), Fraction(d + 2, 2)):
            fv = betaprime_polytope_fvector(n, d, beta)
            yield from _entries(f"betaprime-hull n={n} d={d} beta={beta}", fv.entries)


def dump_lines() -> Iterator[str]:
    """The dump, one line per exact entry, in a fixed order."""
    yield from _cells(CELL_D)
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
        yield from _hulls(d, (d + 1, d + 2, d + 4))


def wide_dump_lines() -> Iterator[str]:
    """The wide dump, one line per exact entry, in a fixed order."""
    yield from _cells(WIDE_CELL_D)
    for n in range(1, WIDE_ROW_N + 1):
        for beta in (Fraction(0), Fraction(1, 2)):
            yield from _entries(f"beta n={n} beta={beta}", angle_table("beta", n, beta).entries)
    for d in range(1, WIDE_HULL_D + 1):
        yield from _hulls(d, (d + 1, d + 2, d + 4, 4 * d))
    yield from _entries("beta-hull n=100 d=6 beta=0", beta_polytope_fvector(100, 6, Fraction(0)).entries)
    fv = betaprime_polytope_fvector(110, 2, Fraction(5, 2))
    yield from _entries("betaprime-hull n=110 d=2 beta=5/2", fv.entries)


def dump_text(wide: bool = False) -> str:
    return "".join(line + "\n" for line in (wide_dump_lines() if wide else dump_lines()))


def dump_digest() -> str:
    return hashlib.sha256(dump_text().encode()).hexdigest()


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--print", action="store_true", help="print the dump before its sha256")
    parser.add_argument("--wide", action="store_true", help="the wide dump, checked against WIDE_DIGEST")
    args = parser.parse_args()
    text = dump_text(args.wide)
    if args.print:
        print(text, end="")
    digest = hashlib.sha256(text.encode()).hexdigest()
    print(f"{digest}  {text.count(chr(10))} lines")
    if args.wide and digest != WIDE_DIGEST:
        sys.exit(f"wide dump sha256 differs from WIDE_DIGEST {WIDE_DIGEST}")


if __name__ == "__main__":
    main()

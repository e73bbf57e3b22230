"""A canonical dump of the seeded Monte Carlo estimators, and its sha256.

Every estimate is printed as its ``repr``, one line per call:

    <estimator> <arguments> McEstimate(mean=..., stderr=..., trials=..., seed=...)

The estimators are bit-reproducible from their arguments, so a faster
estimator that keeps every draw of the seeded stream in its place must
leave the dump, and so its sha256, unchanged.

The dump covers
  - ``mc_angle_sum`` for both families, n = 2..7 and every k, three seeds
    (four for beta', the fourth at 0.05 above the lower end of its range),
    at ``simplices`` in {1, 63, 64, 65, 129} (either side of the batch of 64);
  - ``mc_beta_hull_2d`` for n = 3..8 and 20, at trial counts on either side
    of the hull block (``HULL_CELLS // n**2`` trials, at least one);
  - ``mc_voronoi_2d`` at windows 1, 2, 6 and 8; the small windows are too
    small for most cells, so the window doubling runs;
  - then ``mc_voronoi_2d`` at samples that span several blocks of trials:
    1,000 trials at windows 6 and 8, and 300 at window 1.  They come last,
    so that every line before them keeps its seed.

Run it as a script to print the dump's sha256 (and with ``--print`` the
dump itself); it exits 1 unless the sha256 is ``MC_DIGEST``:

    PYTHONPATH=src python tests/mc_dump.py [--print]
"""

from __future__ import annotations

import argparse
import hashlib
import sys
from typing import Iterator

from angleworks import mc_angle_sum, mc_beta_hull_2d, mc_voronoi_2d

MC_DIGEST = "f6112b2eed6beca1fbe7ae96a3758d553c9d68d7eb212fd2eec8dac250443657"

ANGLE_SIMPLICES = (1, 63, 64, 65, 129)
HULL_NS = (3, 4, 5, 6, 7, 8, 20)
HULL_CELLS = 1 << 13  # trials per hull block times n^2
VORONOI_WINDOWS = (1.0, 2, 6.0, 8.0)
VORONOI_LONG = ((6.0, 1000), (8.0, 1000), (1.0, 300))  # (window, trials)


def _angle_betas(family: str, n: int) -> tuple:
    if family == "beta":
        return (-1.0, 0.0, 1.5)
    # just above the lower end (n - 1)/2 of the beta' range, where the
    # simplices are heavy-tailed, and well inside it; the entry nearest the
    # lower end comes last, so that the others keep their seeds
    return ((n - 1) / 2 + 0.25, n / 2 + 1.0, n / 2 + 2.5, (n - 1) / 2 + 0.05)


def _hull_trials(n: int) -> tuple:
    block = max(1, HULL_CELLS // n**2)
    return tuple(t for t in (1, block - 1, block, block + 1) if t >= 1)


def dump_lines() -> Iterator[str]:
    """The dump, one line per estimate, in a fixed order."""
    for family in ("beta", "betaprime"):
        for n in range(2, 8):
            for k in range(1, n + 1):
                for seed, beta in enumerate(_angle_betas(family, n)):
                    for simplices in ANGLE_SIMPLICES:
                        est = mc_angle_sum(
                            family, n, k, beta, simplices=simplices, directions=16,
                            seed=1000 * n + 100 * k + 10 * seed + simplices % 7,
                        )
                        yield f"angle {family} n={n} k={k} beta={beta} simplices={simplices} {est!r}"
    for n in HULL_NS:
        for i, beta in enumerate((-1.0, 0.0, 0.5)):
            for trials in _hull_trials(n):
                est = mc_beta_hull_2d(n, beta, trials=trials, seed=10 * n + i)
                yield f"hull n={n} beta={beta} trials={trials} {est!r}"
    for i, window in enumerate(VORONOI_WINDOWS):
        for seed in (i, 40 + i):
            est = mc_voronoi_2d(window, trials=150, seed=seed)
            yield f"voronoi window={window} {est!r}"
    for i, (window, trials) in enumerate(VORONOI_LONG):
        est = mc_voronoi_2d(window, trials=trials, seed=80 + i)
        yield f"voronoi window={window} {est!r}"


def dump_text() -> str:
    return "".join(line + "\n" for line in dump_lines())


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--print", action="store_true", help="print the dump before its sha256")
    args = parser.parse_args()
    text = dump_text()
    if args.print:
        print(text, end="")
    digest = hashlib.sha256(text.encode()).hexdigest()
    print(f"{digest}  {text.count(chr(10))} lines")
    if digest != MC_DIGEST:
        sys.exit(f"Monte Carlo dump sha256 differs from MC_DIGEST {MC_DIGEST}")


if __name__ == "__main__":
    main()

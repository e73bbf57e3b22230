"""Seeded query generators for the three benchmark workloads.

Every workload is a list of *slots*.  A slot fixes the stratum, the kind of
query and its size; the seed only picks parameters that barely move the
cost (a concentration parameter from a cost-matched set, the output format,
the number of digits) and the order of the queries.  So every seed gives
the same mix of sizes, and two seeds give comparable timings.

A query is a plain dict that survives a JSON round trip:

``{"id", "stratum", "size", "op", "args"}``, where ``op`` names a function
of ``worker.py``.  ``cold-queries`` runs ``angleworks.cli.main`` on
``args["argv"]``, one query per fresh process; ``warm-sweep`` and
``float-oracle`` run library calls back to back in one process.
"""

from __future__ import annotations

import random
from fractions import Fraction

WORKLOADS = ("cold-queries", "warm-sweep", "float-oracle")

DEFAULT_SEED = 0


def _rng(workload: str, seed: int) -> random.Random:
    # str seeds hash through sha512, so this is stable across processes
    return random.Random(f"{workload}/{seed}")


def _frac(q: Fraction) -> str:
    return str(Fraction(q))


# -- cold-queries ---------------------------------------------------------------

# (stratum, argv template, choices for the template fields).  The seed picks
# only what barely moves the cost.  The slots are laid out so that the
# median and the tail percentile each fall inside a band of queries of
# similar cost, not on the edge between two strata: one slow or fast sample
# then moves them little.
_COLD_SLOTS = (
    # small: reitzner, zero cell, poisson and betaprime rows
    ("small", "fvector --model zerocell --d 8", {"fmt": ("plain", "csv", "json")}),
    ("small", "fvector --model zerocell --d 10", {"fmt": ("plain", "latex", "json")}),
    ("small", "fvector --model zerocell --d 12", {"fmt": ("plain", "csv")}),
    ("small", "fvector --model zerocell --d 14", {"fmt": ("plain", "json")}),
    ("small", "fvector --model poisson --d 6 --alpha {alpha}", {"alpha": (1, 2, 3)}),
    ("small", "fvector --model poisson --d 7 --alpha {alpha}", {"alpha": (1, 2)}),
    ("small", "fvector --model poisson --d 8 --alpha 1", {"fmt": ("plain", "json")}),
    ("small", "fvector --model poisson --d 10 --alpha 1", {"fmt": ("plain", "csv")}),
    ("small", "angles --family betaprime --n 5 --beta={beta}",
     {"beta": ("5/2", "3", "7/2", "4"), "fmt": ("plain", "csv")}),
    ("small", "angles --family betaprime --n 6 --beta={beta}",
     {"beta": ("7/2", "4", "9/2"), "fmt": ("plain", "json")}),
    ("small", "angles --family betaprime --n 7 --beta={beta}",
     {"beta": ("4", "9/2"), "fmt": ("plain", "latex")}),
    ("small", "angles --family betaprime --n 8 --beta={beta}", {"beta": ("9/2", "5")}),
    ("small", "angles --family betaprime --n 9 --beta=5", {"fmt": ("plain", "json")}),
    ("small", "reitzner --surface sphere --d 4", {"fmt": ("plain", "json")}),
    ("small", "reitzner --surface sphere --d 5", {}),
    # small, the band around the median (about 15 to 40 ms)
    ("small", "fvector --model zerocell --d 16", {}),
    ("small", "fvector --model poisson --d 8 --alpha 2", {}),
    ("small", "fvector --model poisson --d 9 --alpha 1", {}),
    ("small", "fvector --model poisson --d 9 --alpha 3", {}),
    ("small", "fvector --model poisson --d 10 --alpha 3", {}),
    ("small", "angles --family betaprime --n 10 --beta=6", {}),
    ("small", "angles --family betaprime --n 11 --beta=6", {}),
    ("small", "angles --family betaprime --n 11 --beta=13/2", {}),
    ("small", "angles --family betaprime --n 12 --beta=7", {}),
    ("small", "reitzner --surface sphere --d 6 --digits {digits}", {"digits": (12, 20)}),
    ("small", "reitzner --surface ball --d 5", {}),
    ("small", "fvector --model zerocell --d 17", {}),
    ("small", "fvector --model poisson --d 9 --alpha 2", {}),
    ("small", "fvector --model poisson --d 10 --alpha 2", {}),
    ("small", "angles --family betaprime --n 10 --beta=11/2", {}),
    ("small", "fvector --model zerocell --d 18", {}),
    ("small", "angles --family betaprime --n 12 --beta=13/2", {}),
    # the same band again in other output formats, so that the median rests
    # on more samples
    ("small", "fvector --model zerocell --d 16", {"fmt": ("json", "csv")}),
    ("small", "fvector --model poisson --d 8 --alpha 2", {"fmt": ("json", "latex")}),
    ("small", "fvector --model poisson --d 9 --alpha 1", {"fmt": ("json", "csv")}),
    ("small", "fvector --model poisson --d 9 --alpha 3", {"fmt": ("json", "latex")}),
    ("small", "fvector --model poisson --d 10 --alpha 3", {"fmt": ("json", "csv")}),
    ("small", "angles --family betaprime --n 10 --beta=6", {"fmt": ("json", "latex")}),
    ("small", "angles --family betaprime --n 11 --beta=6", {"fmt": ("json", "csv")}),
    ("small", "angles --family betaprime --n 11 --beta=13/2", {"fmt": ("json", "latex")}),
    ("small", "angles --family betaprime --n 12 --beta=7", {"fmt": ("json", "csv")}),
    ("small", "fvector --model zerocell --d 17", {"fmt": ("json", "latex")}),
    ("small", "fvector --model poisson --d 9 --alpha 2", {"fmt": ("json", "csv")}),
    ("small", "fvector --model poisson --d 10 --alpha 2", {"fmt": ("json", "latex")}),
    ("small", "angles --family betaprime --n 10 --beta=11/2", {"fmt": ("json", "csv")}),
    ("small", "angles --family betaprime --n 12 --beta=13/2", {"fmt": ("json", "latex")}),
    # medium: beta rows n = 12..14, voronoi d = 8..10, beta polytopes at (10, 8)
    ("medium", "angles --family beta --n 13 --beta=-1/2", {"fmt": ("plain", "json")}),  # residue
    # medium, the band around the tail percentile (about 0.3 to 0.6 s)
    ("medium", "fvector --model voronoi --d 10", {"fmt": ("plain", "latex")}),
    ("medium", "angles --family beta --n 13 --beta=-1", {"fmt": ("plain", "latex")}),  # residue + fill
    ("medium", "angles --family beta --n 14 --beta=1", {"fmt": ("plain", "json")}),     # tan_algebra
    ("medium", "angles --family beta --n 12 --beta=-1/2", {"fmt": ("plain", "csv")}),   # residue + fill
    ("medium", "fvector --model beta --n 10 --d 8 --beta=1/2", {"fmt": ("plain", "json")}),
    ("medium", "fvector --model beta --n 10 --d 8 --beta=-1", {"fmt": ("plain", "csv")}),
    ("medium", "angles --family beta --n 14 --beta=0", {}),                             # tan_algebra
    ("medium", "fvector --model voronoi --d 8", {"fmt": ("plain", "csv")}),
    ("medium", "fvector --model voronoi --d 9", {"fmt": ("plain", "json")}),
    ("medium", "angles --family beta --n 12 --beta={beta}", {"beta": ("0", "1")}),      # tan_algebra
    # large: beta rows n = 15..16, voronoi d = 12, beta polytopes up to (14, 12)
    ("large", "angles --family beta --n 16 --beta=1", {"fmt": ("plain", "csv")}),       # tan_algebra
    ("large", "angles --family beta --n 16 --beta=-1/2", {"fmt": ("plain", "json")}),   # residue + fill
    ("large", "angles --family beta --n 15 --beta=-1", {"fmt": ("plain", "csv")}),      # residue + fill
    ("large", "fvector --model voronoi --d 12 --digits {digits}", {"digits": (15, 30)}),
    ("large", "fvector --model beta --n 13 --d 11 --beta=-1", {"fmt": ("plain", "json")}),
    ("large", "fvector --model beta --n 14 --d 12 --beta=-1/2", {"fmt": ("plain", "latex")}),
)


def cold_queries(seed: int) -> list[dict]:
    rng = _rng("cold-queries", seed)
    out = []
    for i, (stratum, template, choices) in enumerate(_COLD_SLOTS):
        pick = {key: rng.choice(vals) for key, vals in sorted(choices.items())}
        argv = template.format(**pick).split()
        if pick.get("fmt", "plain") != "plain":
            argv += ["--format", pick["fmt"]]
        out.append({"id": f"c{i:02d}:{' '.join(argv)}", "stratum": stratum,
                    "size": f"c{i:02d}", "op": "cli", "args": {"argv": argv}})
    rng.shuffle(out)
    return out


# -- warm-sweep -----------------------------------------------------------------


def warm_sweep(seed: int) -> list[dict]:
    """Several hundred distinct small-to-medium exact library queries that
    share sub-results (angle rows, Fourier powers, residues)."""
    rng = _rng("warm-sweep", seed)
    q: list[tuple[str, str, str, dict]] = []  # (stratum, size, op, args)
    # internal angle rows, every route; together with the external rows they
    # hold every sub-result the inversion sums need, so the seed moves which
    # query pays for a shared sub-result but not the total work
    for n in range(4, 11):
        for tb in range(-2, 5 if n <= 5 else 3):
            q.append(("rows", f"beta n={n} tb={tb}", "angle_row",
                      {"family": "beta", "n": n, "beta": _frac(Fraction(tb, 2))}))
    for n in range(2, 11):
        for alpha in range(1, 7):
            q.append(("rows", f"betaprime n={n} alpha={alpha}", "angle_row",
                      {"family": "betaprime", "n": n, "beta": _frac(Fraction(alpha + n - 1, 2))}))
    # external angle rows
    for n in range(3, 9):
        for alpha in range(0, 8):
            q.append(("external", f"beta n={n} alpha={alpha}", "external_row",
                      {"family": "beta", "n": n, "alpha": alpha}))
        for alpha in range(1, 7):
            q.append(("external", f"betaprime n={n} alpha={alpha}", "external_row",
                      {"family": "betaprime", "n": n, "alpha": alpha}))
    # inversion identities sum_m (-1)^m I_{n,m} J_{m,k} = 0
    for n in range(3, 9):
        pool = [("beta", a, k) for a in range(max(n - 3, 0), 8) for k in range(1, n)]
        pool += [("betaprime", a, k) for a in range(1, 7) for k in range(1, n)]
        for family, alpha, k in rng.sample(pool, 6):
            q.append(("inversion", f"n={n}", "inversion",
                      {"family": family, "n": n, "alpha": alpha, "k": k}))
    # f-vectors of all five models, d <= 8; beta models over several n at a shared (d, beta)
    for d in range(2, 9):
        q.append(("fvector", f"voronoi d={d}", "fvector", {"model": "voronoi", "d": d}))
        q.append(("fvector", f"zerocell d={d}", "fvector", {"model": "zerocell", "d": d}))
        for alpha in (1, 2, 3):
            q.append(("fvector", f"poisson d={d}", "fvector",
                      {"model": "poisson", "d": d, "alpha": alpha}))
    for d, beta, count in ((6, rng.choice(("0", "-1")), 5), (7, "-1/2", 3)):
        for n in range(d + 1, d + 1 + count):
            q.append(("fvector", f"beta d={d} n={n}", "fvector",
                      {"model": "beta", "d": d, "n": n, "beta": beta}))
    for d in (5, 6, 7, 8):
        beta = _frac(Fraction(d + rng.choice((1, 2, 3)), 2))
        for n in range(d + 1, d + 5):
            q.append(("fvector", f"betaprime d={d} n={n}", "fvector",
                      {"model": "betaprime", "d": d, "n": n, "beta": beta}))
    # correctly rounded decimals of angle values
    for n in range(3, 11):
        pool = [(k, tb) for k in range(1, n + 1) for tb in range(-2, 3)]
        for k, tb in rng.sample(pool, 8):
            q.append(("decimal", f"n={n}", "decimal",
                      {"n": n, "k": k, "twice_beta": tb, "digits": rng.randrange(10, 61)}))
    return _finish(rng, "w", q, phases=True)


def _finish(rng: random.Random, prefix: str, q: list, phases: bool = False) -> list[dict]:
    """Shuffle, or with ``phases`` shuffle within each stratum and keep the
    strata in the order given, so that the same kind of query pays for a
    shared sub-result whatever the seed."""
    out = [{"stratum": s, "size": size, "op": op, "args": a} for s, size, op, a in q]
    if phases:
        order = list(dict.fromkeys(item["stratum"] for item in out))
        groups = [[item for item in out if item["stratum"] == st] for st in order]
        for g in groups:
            rng.shuffle(g)
        out = [item for g in groups for item in g]
    else:
        rng.shuffle(out)
    for i, item in enumerate(out):
        item["id"] = f"{prefix}{i:03d}:{item['op']}:{_args_text(item['args'])}"
    return out


# -- float-oracle ---------------------------------------------------------------

#: Monte Carlo sizes; every case is gated at |z| <= 4.
MC_SIMPLICES = 160
MC_DIRECTIONS = 128
MC_HULL_TRIALS = 3000
MC_VORONOI_TRIALS = 1200


def float_oracle(seed: int) -> list[dict]:
    """Numeric-path rows and f-vectors plus seeded Monte Carlo estimates."""
    rng = _rng("float-oracle", seed)
    q: list[tuple[str, str, str, dict]] = []  # (stratum, size, op, args)

    def off_grid(lo: float, hi: float) -> float:
        # a parameter that is never a half-integer, so the numeric path runs
        while True:
            v = round(rng.uniform(lo, hi), 3)
            if (2 * v) % 1:
                return v

    for n in range(3, 13):
        for _ in range(8):
            q.append(("numeric", f"beta n={n}", "angle_row",
                      {"family": "beta", "n": n, "beta": off_grid(-0.9, 2.5)}))
        for _ in range(4):
            q.append(("numeric", f"betaprime n={n}", "angle_row",
                      {"family": "betaprime", "n": n, "beta": off_grid(n / 2 + 0.1, n / 2 + 3)}))
    for d in range(2, 8):
        for _ in range(5):
            q.append(("numeric", f"beta d={d}", "fvector",
                      {"model": "beta", "d": d, "n": d + rng.randrange(1, 6),
                       "beta": off_grid(-0.9, 2.0)}))
        for _ in range(3):
            q.append(("numeric", f"poisson d={d}", "fvector",
                      {"model": "poisson", "d": d, "alpha": off_grid(1.1, 4.0)}))
            q.append(("numeric", f"betaprime d={d}", "fvector",
                      {"model": "betaprime", "d": d, "n": d + rng.randrange(1, 5),
                       "beta": off_grid(d / 2 + 1.0, d / 2 + 3.0)}))
    # half-integer parameters forced through --numeric, compared with the exact value
    for n in range(3, 11):
        for _ in range(2):
            family = rng.choice(("beta", "betaprime"))
            tb = rng.randrange(-2, 4) if family == "beta" else n + rng.randrange(0, 5)
            q.append(("numeric", f"n={n}", "cli_numeric",
                      {"argv": ["angles", "--family", family, "--n", str(n),
                                f"--beta={_frac(Fraction(tb, 2))}", "--numeric",
                                "--format", "json"]}))
    # Monte Carlo: every (n, k) with n = 2..5 for the beta family, betaprime for n = 3, 4
    for n in range(2, 6):
        for k in range(1, n + 1):
            tb = rng.choice((-2, -1, 0, 2))
            q.append(("montecarlo", f"beta n={n} k={k}", "mc_angle",
                      {"family": "beta", "n": n, "k": k, "twice_beta": tb,
                       "simplices": MC_SIMPLICES, "directions": MC_DIRECTIONS,
                       "seed": rng.randrange(1 << 30)}))
    for n in (3, 4):
        for k in range(1, n + 1):
            tb = n + rng.randrange(0, 3)
            q.append(("montecarlo", f"betaprime n={n} k={k}", "mc_angle",
                      {"family": "betaprime", "n": n, "k": k, "twice_beta": tb,
                       "simplices": MC_SIMPLICES, "directions": MC_DIRECTIONS,
                       "seed": rng.randrange(1 << 30)}))
    for n in (4, 5, 6):
        q.append(("montecarlo", f"n={n}", "mc_hull",
                  {"n": n, "twice_beta": rng.choice((-2, -1, 0, 2)), "trials": MC_HULL_TRIALS,
                   "seed": rng.randrange(1 << 30)}))
    q.append(("montecarlo", "cell", "mc_voronoi",
              {"window": 6.0, "trials": MC_VORONOI_TRIALS, "seed": rng.randrange(1 << 30)}))
    return _finish(rng, "f", q)


def _args_text(args: dict) -> str:
    return ",".join(
        f"{k}={' '.join(v) if isinstance(v, list) else v}" for k, v in sorted(args.items())
    )


GENERATORS = {
    "cold-queries": cold_queries,
    "warm-sweep": warm_sweep,
    "float-oracle": float_oracle,
}


def strata(queries: list[dict]) -> list[tuple[str, str]]:
    """The size signature of a query list: its sorted (stratum, size) pairs.
    The size leaves out every parameter the seed picks."""
    return sorted((q["stratum"], q["size"]) for q in queries)

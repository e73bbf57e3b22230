"""Byte-identical CLI stdout on the exact paths.

Each digest is the sha256 of the stdout of one exact command.

* Four beta and beta' polytope f-vectors exercise the external-angle kernel.
  Their digests were recorded from the FourierPoly kernel over [-pi/2, pi/2]
  that the rational kernel in u = x + pi/2 replaced.  The cases cover an
  even exponent of F (alpha = 6 at (9, 8, -1); alpha = 10 at (12, 10, 0)),
  an odd one (alpha = 9 at (10, 8, 1/2)) and the beta' route, in three
  formats.
* Four of the largest internal-angle rows and Voronoi f-vectors exercise
  the residue kernel and the tangent route.  Their digests were recorded
  from the Fraction kernels that the integer-numerator ones replaced:
  - the beta rows n = 16 at beta = -1/2 and n = 15 at beta = -1 (residues
    and the Bernoulli fill);
  - the beta row n = 16 at beta = 1 (the tangent route);
  - the Voronoi cell at d = 12 (residues).
* Four beta' rows and f-vectors exercise the shifted formulas that serve
  both families (the beta formula at alpha - 1 with c~_beta = c_(beta - 3/2)).
  Their digests were recorded from the separate beta' formulas they
  replaced: the rows n = 14 at beta = 19/2 (residues only) and beta = 9
  (residues and the fill), the Poisson polytope at d = 11, alpha = 3, and
  the beta' polytope (11, 9, 6).
* Two larger f-vectors exercise the shared G_a^p prefixes, which every row
  with one a reads: the Voronoi cell at d = 20 and the beta polytope
  (20, 18, 0).  Their digests were recorded from the kernel that built each
  G_a^p from scratch per residue.
* Five commands pin the routes the other digests miss.  Their digests were
  recorded from the residue kernel in even-derivative form, [y^N] of
  G_a^p (sin x / x)^-q, that the kernel in s = sin x replaced:
  - the zero cell at d = 22 reads [x^j] (x / sin x)^(d+1) through
    ``x_over_sin_coeff``;
  - the Reitzner constants of the sphere and the ball at d = 8;
  - ``verify --suite relations`` (Poincare and inversion relations, Euler
    and Dehn-Sommerville) and ``verify --suite crosscheck``, which also
    reads ``sin_cos_residue`` and, through ``ugly_coefficient``,
    ``series_kernel.residue_rational(s, j, M)``.

  The ``verify --suite relations`` digest was re-recorded once since, when
  the detail text of the two inversion checks changed from "identities" to
  "N entries against the Fourier kernel, M identities"; every other line of
  that stdout is as recorded.

``test_exact_dump`` pins the sha256 of the full ``tests/exact_dump.py``
(every exact value with its provenance tag), recorded from the same
even-derivative kernel.
"""

import hashlib

import pytest

from angleworks.cli import main
from exact_dump import dump_digest

TRANSCRIPTS = [
    ("fvector --model beta --n 12 --d 10 --beta 0 --format json",
     "a25ad612e7cdd813691993a8cb78795915d2142e495e8fa09e4fb083401be194"),
    ("fvector --model beta --n 10 --d 8 --beta 1/2 --format json",
     "2147079a49751638b22800c65546902de62a4cf972ac338c1c88d0441ce0ed06"),
    ("fvector --model betaprime --n 14 --d 12 --beta=13/2",
     "10a0b0ab97496fdb0dd46383eed25d8907fdebd97d7c01dde0ec85b46e7367cc"),
    ("fvector --model beta --n 9 --d 8 --beta=-1 --format latex",
     "1e20348d25856369f69532877aff29e873a98d91ef2d75a76e7e81c32ba70305"),
    ("angles --family beta --n 16 --beta=-1/2 --format json",
     "82c6eea9abd975f48118dbaef2ddd2ba308d16367f3c3bdbaea502065e59f93d"),
    ("angles --family beta --n 16 --beta=1 --format csv",
     "025562884e4afad9bb28310aa988c559561c8fbcd3c01b03d040c38edeb4925f"),
    ("angles --family beta --n 15 --beta=-1 --format csv",
     "e4c0dc77c9eb11fd43c00212a29a39343b5aee64a07d9f3188ce79c4a7822e0b"),
    ("fvector --model voronoi --d 12 --digits 15",
     "aa32f457355126869b0597890ae1ac382516476031af0c77754e09a863e85776"),
    ("angles --family betaprime --n 14 --beta 19/2 --format json",
     "4d1d6a757cf1e9880dab0359b0fc29f3b569eb6267a30463a22f6c47bec9a75d"),
    ("angles --family betaprime --n 14 --beta 9 --format csv",
     "c8e60ddae816c04b63477da559704f4fa5a1be66fedf1782bc3230ff2a6aa713"),
    ("fvector --model poisson --d 11 --alpha 3 --digits 20",
     "cc6c5779c2fbc004d960917e9a5056fc69643a08259c6dddc823d6a436e37d70"),
    ("fvector --model betaprime --n 11 --d 9 --beta 6 --format latex",
     "8e52b1797c10703578a7d8cc3006c4c3b70c9abf84d29151f554437a3e64b382"),
    ("fvector --model voronoi --d 20",
     "1d211ca6131620a346c07124a85447b36b07b99acaef01bdebc9404c01bd3a9f"),
    ("fvector --model beta --n 20 --d 18 --beta 0",
     "84314390f7f22b9cc32ac4fcf9cc9fb816c2f1522396e6c6d158367b1c68ddc9"),
    ("fvector --model zerocell --d 22",
     "cf261ad203a637835c2495a166e14b19c493acf22a4ab0861824ed2591391519"),
    ("reitzner --surface sphere --d 8",
     "500d2e3ba880d2d88377473a702b31c0c1202feb1bdde2f096edabbadf227dea"),
    ("reitzner --surface ball --d 8",
     "536a8b44e5b8d850b60267dcb7805c69f2d081e83d14b507f4187c2b4b2ac88e"),
    ("verify --suite relations",
     "c32fbcb3c45b653f7f406cbae58201bf9efeeccfd2f01aa8831ec7bfbd8e2b84"),
    ("verify --suite crosscheck",
     "980445001215de52934c3221abb37c02f94c0bb10faed05b59fa97c2026a1db1"),
]


@pytest.mark.parametrize("command, digest", TRANSCRIPTS, ids=[c for c, _ in TRANSCRIPTS])
def test_stdout_digest(capsys, command, digest):
    assert main(command.split()) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_exact_dump():
    assert dump_digest() == "846c236942f873406b9222fdb4f7c3cac782e9b42309007e5c49fff13f172b15"

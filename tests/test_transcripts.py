"""Byte-identical CLI stdout on the exact external-angle path.

Each digest is the sha256 of the stdout of one exact beta or beta' polytope
f-vector, recorded from the FourierPoly kernel over [-pi/2, pi/2] that the
rational kernel in u = x + pi/2 replaced.  The cases cover an even
exponent of F (alpha = 6 at (9, 8, -1); alpha = 10 at (12, 10, 0)), an odd
one (alpha = 9 at (10, 8, 1/2)) and the beta' route, in three formats.
"""

import hashlib

import pytest

from angleworks.cli import main

TRANSCRIPTS = [
    ("fvector --model beta --n 12 --d 10 --beta 0 --format json",
     "a25ad612e7cdd813691993a8cb78795915d2142e495e8fa09e4fb083401be194"),
    ("fvector --model beta --n 10 --d 8 --beta 1/2 --format json",
     "2147079a49751638b22800c65546902de62a4cf972ac338c1c88d0441ce0ed06"),
    ("fvector --model betaprime --n 14 --d 12 --beta=13/2",
     "10a0b0ab97496fdb0dd46383eed25d8907fdebd97d7c01dde0ec85b46e7367cc"),
    ("fvector --model beta --n 9 --d 8 --beta=-1 --format latex",
     "1e20348d25856369f69532877aff29e873a98d91ef2d75a76e7e81c32ba70305"),
]


@pytest.mark.parametrize("command, digest", TRANSCRIPTS, ids=[c for c, _ in TRANSCRIPTS])
def test_stdout_digest(capsys, command, digest):
    assert main(command.split()) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == digest

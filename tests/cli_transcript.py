"""One sha256 over the CLI's exit code and stdout on the benchmark's queries.

The queries are every argv of the cold-queries workload at seeds 0, 1 and 2
(read from ``bench/workloads.py``), each also with ``--format json`` where
its command takes that format, and the three ``verify`` suites.  Each runs
through ``angleworks.cli.main`` in this one process; the digest reads, per
argv in sorted order, the argv, the exit code and the stdout.  A change
that keeps every CLI output byte-identical keeps the digest.

Run it as a script to print the digest; it exits 1 unless the digest is
the pinned ``CLI_DIGEST``, which a change to the CLI output made on purpose
re-pins:

    PYTHONPATH=src python tests/cli_transcript.py

It takes about 2 s on a 2-core machine and stays out of the test suite.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import sys
from pathlib import Path

from angleworks import cli
from angleworks.verify import SUITES

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))
import workloads  # noqa: E402

SEEDS = (0, 1, 2)
CLI_DIGEST = "621c2a1e9fa43dd0553ae669d905a451db8d1c0c9b078c960006426de7afeadb"


def argvs() -> list[tuple[str, ...]]:
    """Every argv of the transcript, sorted and without repeats."""
    out = {("verify", "--suite", suite) for suite in SUITES}
    for seed in SEEDS:
        for query in workloads.cold_queries(seed):
            argv = tuple(query["args"]["argv"])
            out.add(argv)
            options = cli._COMMANDS[argv[0]][2]
            if any(name == "format" and "json" in choices for name, _, choices, *_ in options):
                out.add(argv + ("--format", "json"))
    return sorted(out)


def transcript_digest(commands: list[tuple[str, ...]]) -> str:
    digest = hashlib.sha256()
    for argv in commands:
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(list(argv))
        digest.update(f"$ {' '.join(argv)}\n[exit {code}]\n{stdout.getvalue()}".encode())
    return digest.hexdigest()


def main() -> None:
    commands = argvs()
    digest = transcript_digest(commands)
    print(f"{digest}  {len(commands)} commands")
    if digest != CLI_DIGEST:
        sys.exit(f"CLI transcript sha256 differs from CLI_DIGEST {CLI_DIGEST}")


if __name__ == "__main__":
    main()

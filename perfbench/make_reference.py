"""Record the reference outputs the benchmark checks every job against.

Runs every fixed job of every workload, and every job of the rank-4
admissible-weight pool, through ``blvoa.cli.main`` in-process and writes
their exit code, JSON status, entry count, admissibility flags and
simple-coroot tags to ``reference.json``.  The pool holds the classified
weights at (4, 1) and (4, 2), which the paper proves admissible, and
random weights at nearby levels, most of which are not.

Run from the repository root, at the commit whose outputs are the
reference:

    python3 perfbench/make_reference.py
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import sys
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from blvoa.cli import main  # noqa: E402

import workloads  # noqa: E402

RANDOM_POOL = 64
RANDOM_LEVELS = ("-5/2", "-3/2", "-1/2", "1/2", "-2", "1/3")


def run(argv: list[str]) -> dict:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = main([*argv, "--json"])
    payload = json.loads(out.getvalue())
    entries = payload["entries"]
    return {
        "rc": rc,
        "status": payload["status"],
        "entries": len(entries),
        "admissible": [bool(e["admissible"]) for e in entries],
        "tags": [e["tags"] for e in entries],
    }


def weight_text(fundamental: list[str]) -> str:
    return ",".join(str(Fraction(c)) for c in fundamental)


def admissible_pool() -> list[list[str]]:
    pool = []
    for n in (1, 2):
        level = str(Fraction(2 * n - 2 * 4 + 1, 2))
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            main(["classify", "--rank", "4", "--n", str(n), "--json"])
        for e in json.loads(out.getvalue())["entries"]:
            pool.append(["admissible", "--rank", "4", "--level", level,
                         "--weight", weight_text(e["weight_fundamental"])])
    rng = random.Random("admissible-pool")
    size = len(pool) + RANDOM_POOL
    while len(pool) < size:
        coords = [str(Fraction(rng.randint(-4, 6), 2)) for _ in range(4)]
        argv = ["admissible", "--rank", "4", "--level", rng.choice(RANDOM_LEVELS),
                "--weight", ",".join(coords)]
        if argv not in pool:
            pool.append(argv)
    return pool


def build() -> dict:
    pool = admissible_pool()
    fixed = [argv for jobs in workloads.FIXED.values() for argv in jobs]
    jobs = {}
    for argv in fixed + pool:
        print(" ".join(argv), file=sys.stderr)
        jobs[workloads.job_key(argv)] = run(argv)
    return {"admissible_pool": pool, "jobs": jobs}


if __name__ == "__main__":
    with open(workloads.REFERENCE, "w") as fh:
        json.dump(build(), fh, indent=1)
        fh.write("\n")

"""The benchmark's workloads: which CLI jobs each one runs, drawn from a
seed, and the checks every job's output must pass.

A job is the argv of one ``blvoa`` CLI call, without ``--json`` (the
worker adds it).  The seed draws the randomized inputs and the order of the
jobs; the program only ever receives the generated argv.

Expected outputs come from two sources.  ``reference.json`` holds the exit
code, JSON ``status`` and entry count of every fixed job and of every item
of the admissible-weight pool, recorded at the commit that introduced the
benchmark by ``make_reference.py``.  On top of that, the values the paper
fixes are checked directly: PASS at level n - l + 1/2, 80 admissible
entries at (4, 2), ``fail=0`` in the identity suite, and Weyl dimensions,
which are computed here independently of the engine.
"""

from __future__ import annotations

import json
import random
import re
from fractions import Fraction
from functools import lru_cache
from pathlib import Path
from typing import Optional

REFERENCE = Path(__file__).resolve().parent / "reference.json"

# Why each workload exists and which layers it stresses: see README.md.
FIXED: dict[str, list[list[str]]] = {
    "oracle": [
        ["p0", "--rank", "2", "--n", "3"],
        ["p0", "--rank", "3", "--n", "2"],
        ["p0", "--compare", "--rank", "2", "--n", "2"],
        ["p0", "--compare", "--rank", "3", "--n", "1"],
    ],
    "rank4": [
        ["check-singular", "--rank", "4", "--n", "2"],
        ["identities", "--rank", "4"],
        ["classify", "--rank", "4", "--n", "2"],
    ],
    "vacuum": [
        ["check-singular", "--rank", "3", "--n", "20"],
        ["check-singular", "--rank", "2", "--n", "40"],
        # off level: must report FAIL:136, so an always-PASS change is caught
        ["check-singular", "--rank", "3", "--n", "16", "--level", "0"],
    ],
}
WORKLOADS = tuple(FIXED)

ADMISSIBLE_DRAWS = 20   # rank4: admissible jobs drawn from the reference pool
DIM_DRAWS = 4           # rank4: dim jobs with random dominant integral weights
DIM_MAX_COORD = 3


@lru_cache(maxsize=None)
def reference() -> dict:
    with open(REFERENCE) as fh:
        return json.load(fh)


def job_key(argv: list[str]) -> str:
    return " ".join(argv)


def jobs_for(workload: str, seed: int) -> list[list[str]]:
    """The job list of one pass of ``workload``; the same seed gives the
    same list."""
    if workload not in FIXED:
        raise ValueError(f"unknown workload {workload!r}")
    rng = random.Random(f"{workload}:{seed}")
    jobs = [list(argv) for argv in FIXED[workload]]
    if workload == "rank4":
        pool = reference()["admissible_pool"]
        jobs += [list(argv) for argv in rng.sample(pool, ADMISSIBLE_DRAWS)]
        for _ in range(DIM_DRAWS):
            coords = [rng.randint(0, DIM_MAX_COORD) for _ in range(4)]
            jobs.append(["dim", "--rank", "4", "--weight", ",".join(map(str, coords))])
    rng.shuffle(jobs)
    return jobs


# ---------------------------------------------------------------------------
# output checks
# ---------------------------------------------------------------------------


def _flag(argv: list[str], name: str, default: Optional[str] = None) -> Optional[str]:
    return argv[argv.index(name) + 1] if name in argv else default


def _frac_str(x: Fraction) -> str:
    return f"{x.numerator}/{x.denominator}"


def weyl_dim_b(fundamental: list[int]) -> int:
    """Weyl dimension of the so(2l+1) irreducible with the given dominant
    integral highest weight in fundamental coordinates.

    In epsilon coordinates omega_i = eps_1 + ... + eps_i (i < l) and
    omega_l = (eps_1 + ... + eps_l)/2, rho_j = l - j + 1/2, and the
    positive roots are eps_i and eps_i -+ eps_j (i < j).
    """
    l = len(fundamental)
    lam = [
        sum(fundamental[j : l - 1]) + Fraction(fundamental[l - 1], 2)
        for j in range(l)
    ]
    rho = [Fraction(2 * (l - j) - 1, 2) for j in range(l)]
    shifted = [a + b for a, b in zip(lam, rho)]
    num = den = Fraction(1)
    for i in range(l):
        num *= shifted[i]
        den *= rho[i]
        for j in range(i + 1, l):
            num *= (shifted[i] - shifted[j]) * (shifted[i] + shifted[j])
            den *= (rho[i] - rho[j]) * (rho[i] + rho[j])
    dim = num / den
    if dim.denominator != 1:
        raise ArithmeticError(f"Weyl dimension {dim} is not an integer")
    return int(dim)


def check(argv: list[str], rc: Optional[int], payload: Optional[dict]) -> list[str]:
    """Every way the output of one job differs from what it must be; an
    empty list means the job is correct."""
    if rc != 0:
        return [f"exit code {rc}, expected 0"]
    if not isinstance(payload, dict):
        return ["no JSON output"]
    problems: list[str] = []
    status = payload.get("status")
    entries = payload.get("entries") or []
    if payload.get("command") != argv[0]:
        problems.append(f"command {payload.get('command')!r}, expected {argv[0]!r}")
    ref = reference()["jobs"].get(job_key(argv))
    if ref is not None:
        if status != ref["status"]:
            problems.append(f"status {status!r}, reference {ref['status']!r}")
        if len(entries) != ref["entries"]:
            problems.append(f"{len(entries)} entries, reference {ref['entries']}")
        if "admissible" in ref and [bool(e.get("admissible")) for e in entries] != ref["admissible"]:
            problems.append("admissibility flags differ from the reference")
        if "tags" in ref and [e.get("tags") for e in entries] != ref["tags"]:
            problems.append("Pi_check simple coroots differ from the reference")
    elif argv[0] != "dim":
        problems.append("no reference output for this job")
    problems += _paper_checks(argv, payload)
    return problems


def _paper_checks(argv: list[str], payload: dict) -> list[str]:
    cmd = argv[0]
    status = payload.get("status", "")
    entries = payload.get("entries") or []
    rank = int(_flag(argv, "--rank"))
    n = int(_flag(argv, "--n", "1"))
    problems = []
    if cmd == "check-singular" and _flag(argv, "--level") is None:
        level = Fraction(2 * n - 2 * rank + 1, 2)
        if payload.get("level") != _frac_str(level):
            problems.append(f"level {payload.get('level')}, expected n - l + 1/2 = {level}")
        if status != "PASS":
            problems.append(f"{status} at level n - l + 1/2, expected PASS")
    elif cmd == "classify" and (rank, n) == (4, 2):
        if len(entries) != 80 or not all(e.get("admissible") for e in entries):
            problems.append("expected 80 admissible entries at (4, 2)")
    elif cmd == "identities":
        if not re.search(r"(^|,)fail=0($|,)", status):
            problems.append(f"identity suite reports {status}")
    elif cmd == "dim":
        coords = [int(c) for c in _flag(argv, "--weight").split(",")]
        expected = f"dim={weyl_dim_b(coords)}"
        if status != expected:
            problems.append(f"{status}, Weyl dimension formula gives {expected}")
    elif cmd == "p0" and "--compare" in argv:
        if "member=true" not in status.split(","):
            problems.append("explicit polynomials escape the oracle span")
        if n == 1 and "equal=true" not in status.split(","):
            problems.append("oracle span differs from the explicit span at n = 1")
    return problems

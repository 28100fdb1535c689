"""The so(2l+1) data pinned by digest: at ranks 2-7, the SHA-256 of the
sorted bracket table and of the invariant form on every ordered pair of
basis elements, against ``liealg_golden.json``.

The table is hashed as the sorted list of (i, j, sorted row), the form as
the list of str((x_i, x_j)) in (i, j) order, so an int and a Fraction of the
same value hash alike.

The file is recorded with ``PYTHONPATH=src python tests/test_liealg_golden.py``;
record it only from a commit whose output is known to be right, since the
test takes the file as the truth.
"""

import hashlib
import json
from pathlib import Path

import pytest

from blvoa.liealg import LieAlgebra

GOLDEN = Path(__file__).with_name("liealg_golden.json")
RANKS = [2, 3, 4, 5, 6, 7]


def _sha(obj) -> str:
    return hashlib.sha256(json.dumps(obj).encode()).hexdigest()


def digests(rank: int) -> dict:
    lie = LieAlgebra(rank)
    table = lie.structure_constants()
    rows = [[i, j, sorted(row.items())] for (i, j), row in sorted(table.items())]
    form = [str(lie.invariant_form(x, y)) for x in lie.basis for y in lie.basis]
    return {"rank": rank, "brackets": _sha(rows), "form": _sha(form)}


def test_golden_covers_its_ranks():
    with open(GOLDEN) as fh:
        assert [r["rank"] for r in json.load(fh)] == RANKS


@pytest.mark.parametrize("rank", RANKS)
def test_liealg_data_matches_golden(rank):
    with open(GOLDEN) as fh:
        want = next(r for r in json.load(fh) if r["rank"] == rank)
    assert digests(rank) == want


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps([digests(r) for r in RANKS], indent=1) + "\n")

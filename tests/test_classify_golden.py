"""The printed classification lists and admissibility certificates pinned
byte for byte: exit code, stdout and stderr of ``classify`` at small
(rank, n) and of ``admissible`` on weights of the benchmark's reference
pool, each as text and ``--json``, against ``classify_golden.json``.

``classify --rank 3 --n 3`` exits 3: four of its q-zeros fail
admissibility.  ``admissible --rank 2 --level -1/2 --weight -3/2,1`` lists
more simple coroots than the rank allows (ROADMAP item 5).  Both are
pinned as they stand, so a change to either shows here.

The file is recorded with ``PYTHONPATH=src python tests/test_classify_golden.py``;
record it only from a commit whose output is known to be right, since the test takes the file as the truth.
"""

import json
from pathlib import Path

import pytest

from test_p0_golden import run_cli

GOLDEN = Path(__file__).with_name("classify_golden.json")
POOL = Path(__file__).resolve().parents[1] / "perfbench" / "reference.json"
CLASSIFY_POINTS = [(2, 1), (3, 1), (2, 2), (3, 2), (4, 2), (2, 3), (3, 3)]


def golden_argvs() -> list[list[str]]:
    admissible = json.loads(POOL.read_text())["admissible_pool"][::16]
    admissible += [
        [*admissible[0], "--mmax", "0"],
        ["admissible", "--rank", "2", "--level", "-1/2", "--weight", "-3/2,1"],
    ]
    out = []
    for l, n in CLASSIFY_POINTS:
        out.append(["classify", "--rank", str(l), "--n", str(n)])
    out.extend(admissible)
    return [argv + fmt for argv in out for fmt in ([], ["--json"])]


def test_golden_covers_its_argv():
    with open(GOLDEN) as fh:
        assert [r["argv"] for r in json.load(fh)] == golden_argvs()


@pytest.mark.parametrize(
    "argv", golden_argvs(), ids=lambda a: "".join(a).replace("--", "_")
)
def test_classify_output_matches_golden(argv):
    with open(GOLDEN) as fh:
        want = next(r for r in json.load(fh) if r["argv"] == argv)
    assert run_cli(argv) == want


if __name__ == "__main__":
    records = [run_cli(argv) for argv in golden_argvs()]
    GOLDEN.write_text(json.dumps(records, indent=1) + "\n")

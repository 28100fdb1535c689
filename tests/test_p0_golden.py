"""The printed P0 pinned byte for byte: exit code, stdout and stderr of
``p0`` at small (rank, n), of ``p0 --compare`` at n <= 2, and of ``p0`` at
(3, 3) and (5, 2), where the quotient by n_-U(g) drops the most,
each as text and ``--json``, against ``p0_golden.json``.

The file is recorded with ``PYTHONPATH=src python tests/test_p0_golden.py``
(``BLVOA_GUARD`` unset); record it only from a commit whose output is known
to be right, since the test takes the file as the truth.
"""

import contextlib
import io
import json
import os
from pathlib import Path

import pytest

from blvoa.cli import GUARD_ENV, main

GOLDEN = Path(__file__).with_name("p0_golden.json")
P0_POINTS = [(2, 1), (3, 1), (4, 1), (2, 2), (2, 3), (3, 2), (4, 2)]
COMPARE_POINTS = [(2, 1), (3, 1), (2, 2)]
LARGE_P0_POINTS = [(3, 3), (5, 2)]


def golden_argvs() -> list[list[str]]:
    out = []
    for flags, points in (
        ([], P0_POINTS),
        (["--compare"], COMPARE_POINTS),
        ([], LARGE_P0_POINTS),
    ):
        for l, n in points:
            for fmt in ([], ["--json"]):
                out.append(["p0", *flags, "--rank", str(l), "--n", str(n), *fmt])
    return out


def run_cli(argv: list[str]) -> dict:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return {
        "argv": argv,
        "code": code,
        "stdout": out.getvalue(),
        "stderr": err.getvalue(),
    }


def test_golden_covers_its_argv():
    with open(GOLDEN) as fh:
        assert [r["argv"] for r in json.load(fh)] == golden_argvs()


@pytest.mark.parametrize(
    "argv", golden_argvs(), ids=lambda a: "".join(a[1:]).replace("--", "_").strip("_")
)
def test_p0_output_matches_golden(argv, monkeypatch):
    monkeypatch.delenv(GUARD_ENV, raising=False)
    with open(GOLDEN) as fh:
        want = next(r for r in json.load(fh) if r["argv"] == argv)
    assert run_cli(argv) == want


if __name__ == "__main__":
    os.environ.pop(GUARD_ENV, None)
    records = [run_cli(argv) for argv in golden_argvs()]
    GOLDEN.write_text(json.dumps(records, indent=1) + "\n")

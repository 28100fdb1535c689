"""The CLI's help and usage messages pinned byte for byte: exit code, stdout
and stderr with no argv, an unknown command, ``-h`` at the top level and
for each command, a bad ``--rank`` value, one missing required flag per
command and every flag a command stopped accepting, against
``cli_golden.json``.

``-h`` leaves through ``SystemExit(0)``, whose code is recorded.  argparse
wraps help text to the terminal width, so the file is recorded, and the
test runs, at ``COLUMNS=80``.

The file is recorded with ``PYTHONPATH=src python tests/test_cli_golden.py``;
record it only from a commit whose output is known to be right, since the
test takes the file as the truth.
"""

import contextlib
import io
import json
import os
from pathlib import Path

import pytest

from test_cli import REMOVED_FLAG_ARGVS

from blvoa.cli import COMMANDS, main

GOLDEN = Path(__file__).with_name("cli_golden.json")
COLUMNS = "80"


def golden_argvs() -> list[list[str]]:
    out = [[], ["frobnicate"], ["-h"]]
    out += [[command, "-h"] for command in COMMANDS]
    out.append(["classify", "--rank", "two"])
    out += [   # one required flag missing per command
        ["classify", "--n", "1"],
        ["check-singular", "--n", "1"],
        ["p0", "--n", "1"],
        ["admissible", "--rank", "2", "--weight", "0,0"],
        ["dim", "--rank", "2"],
        ["identities"],
    ]
    out += [list(argv) for argv in REMOVED_FLAG_ARGVS]
    return out


def run_cli(argv: list[str]) -> dict:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
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
    "argv", golden_argvs(), ids=lambda a: "".join(a).replace("--", "_") or "none"
)
def test_cli_output_matches_golden(argv, monkeypatch):
    monkeypatch.setenv("COLUMNS", COLUMNS)
    with open(GOLDEN) as fh:
        want = next(r for r in json.load(fh) if r["argv"] == argv)
    assert run_cli(argv) == want


if __name__ == "__main__":
    os.environ["COLUMNS"] = COLUMNS
    records = [run_cli(argv) for argv in golden_argvs()]
    GOLDEN.write_text(json.dumps(records, indent=1) + "\n")

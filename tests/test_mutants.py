"""The mutation catalogue stays applicable: each mutant's text occurs
exactly once in its file, so the catalogue fails here, not silently, when
src moves on.  Running the mutants is tests/mutants.py's job."""

import pytest

from mutants import MUTANTS, ROOT


@pytest.mark.parametrize("mutant", MUTANTS, ids=[m.name for m in MUTANTS])
def test_mutant_text_occurs_once_in_src(mutant):
    assert mutant.file.startswith("src/blvoa/")
    assert (ROOT / mutant.file).read_text().count(mutant.old) == 1
    assert mutant.tests and all((ROOT / t.split("::")[0]).is_file() for t in mutant.tests)

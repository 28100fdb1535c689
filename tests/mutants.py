"""The mutation catalogue: deliberate faults in src and the tests that must
catch each one.

Each mutant replaces one exact text of a file under src/blvoa (it occurs
there exactly once, which tests/test_mutants.py checks) and names the
tests that must fail once it is applied.  Run the catalogue with

    python tests/mutants.py            # every mutant
    python tests/mutants.py NAME ...   # the named ones

Each mutant is applied to a fresh temporary copy of src (with tests,
perfbench and pyproject.toml beside it, as the tests read them); its tests
run there, and a mutant survives when they all pass.  The run prints each
mutant as killed or SURVIVED with its time, and exits 1 if any survived;
the full run (twenty-two mutants) takes about 28 s on a 2-CPU x86-64 machine.
Standard library only.
"""

from __future__ import annotations

import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple, Optional, Sequence

ROOT = Path(__file__).resolve().parents[1]
COPIED = ("src", "tests", "perfbench", "pyproject.toml")


class Mutant(NamedTuple):
    name: str
    file: str          # relative to the repository root
    old: str           # exact text, once in the file
    new: str
    tests: tuple[str, ...]   # pytest node ids, at least one of which must fail


FULL_SCAN = "tests/test_liealg.py::test_structure_constants_match_full_scan_reference"
LIEALG_GOLDEN = "tests/test_liealg_golden.py::test_liealg_data_matches_golden"
ADMISSIBLE_DIFF = "tests/test_affine.py::test_is_admissible_matches_fraction_reference"
SHARED_DIFF = "tests/test_affine.py::test_shared_class_tables_match_fraction_reference"
SPLITS_SCAN = "tests/test_rootsys.py::test_closed_form_splits_match_a_scan_of_every_pair"
RIGHT_INSERTION = "tests/test_uea.py::test_right_insertion_is_the_product_modulo_nminus"
QUOTIENT_DESCENT = "tests/test_zero_weight.py::test_quotient_descent_matches_the_step_in_ug"
WORD_PATH = "tests/test_zero_weight.py::test_word_path_matches_the_reference_descents"
CLOSED_FORM_COUNT = (
    "tests/test_classify.py::"
    "test_closed_form_has_2_to_the_l_minus_1_weights_per_finite_dim_weight"
)

MUTANTS: tuple[Mutant, ...] = (
    Mutant(
        "root-pair bracket drops the d_ac' term",
        "src/blvoa/liealg.py",
        "            (a == p - c, -1, p - b, d),\n",
        "",
        (FULL_SCAN, LIEALG_GOLDEN),
    ),
    Mutant(
        "root-pair bracket ignores the sign of A(b', a')",
        "src/blvoa/liealg.py",
        "s += sign if (x, y) == (at, bt) else -sign",
        "s += sign",
        (FULL_SCAN, LIEALG_GOLDEN),
    ),
    Mutant(
        "root-pair bracket drops the 1/2 of the units",
        "src/blvoa/liealg.py",
        "num, div = ui * uj * s, 2 * ut",
        "num, div = ui * uj * s, ut",
        (FULL_SCAN, LIEALG_GOLDEN),
    ),
    Mutant(
        "mode 0 allowed for negative roots",
        "src/blvoa/rootsys.py",
        "self.low_modes = tuple(int(alpha < zero) for alpha in self.roots)",
        "self.low_modes = tuple(0 for alpha in self.roots)",
        (ADMISSIBLE_DIFF,),
    ),
    Mutant(
        "rank count stopped at l",
        "src/blvoa/affine.py",
        "if span.dim < l + 1:",
        "if span.dim < l:",
        (ADMISSIBLE_DIFF,),
    ),
    Mutant(
        "violations only below 0",
        "src/blvoa/affine.py",
        "        if a * ms.start + b <= 0:\n"
        "            last = min(m_max, -b // a)\n",
        "        if a * ms.start + b < 0:\n"
        "            last = min(m_max, (-b - 1) // a)\n",
        (ADMISSIBLE_DIFF,),
    ),
    Mutant(
        "class key without m_max",
        "src/blvoa/affine.py",
        "key = (d, m_max, residues)",
        "key = (d, residues)",
        (SHARED_DIFF,),
    ),
    Mutant(
        "class key without the residues B mod D",
        "src/blvoa/affine.py",
        "key = (d, m_max, residues)",
        "key = (d, m_max, tuple(a for a, _ in residues))",
        (SHARED_DIFF,),
    ),
    Mutant(
        "splits cut to two per coroot",
        "src/blvoa/rootsys.py",
        "splits.append(tuple(pairs))",
        "splits.append(tuple(pairs[:2]))",
        (SPLITS_SCAN, ADMISSIBLE_DIFF),
    ),
    Mutant(
        "short-coroot splits dropped",
        "src/blvoa/rootsys.py",
        "pairs = [(row[b + u], row[b - u]) for u in unit if u != abs(b)]",
        "pairs = []",
        (SPLITS_SCAN, ADMISSIBLE_DIFF),
    ),
    Mutant(
        "root rows unsorted",
        "src/blvoa/rootsys.py",
        "        table.sort()\n",
        "",
        (
            "tests/test_rootsys.py::test_datum_rows_match_positive_roots_and_int_coroot",
            ADMISSIBLE_DIFF,
        ),
    ),
    Mutant(
        "right insertion drops rest·[last, x]",
        "src/blvoa/uea.py",
        "            for k, c in self.brackets[(last, x)].items():\n"
        "                for m, c2 in self._right_insert_raising(k, rest).items():\n"
        "                    add_into(out, m, c * c2)\n",
        "",
        (RIGHT_INSERTION, QUOTIENT_DESCENT),
    ),
    Mutant(
        "right insertion keeps a lowering letter at the front",
        "src/blvoa/uea.py",
        "return {} if x < self.h_start else {((x, 1),): 1}",
        "return {((x, 1),): 1}",
        (RIGHT_INSERTION, QUOTIENT_DESCENT),
    ),
    Mutant(
        "n = 1 S and S' labels swapped",
        "src/blvoa/classify.py",
        """("S'=" if d[-1] else "S=")""",
        """("S=" if d[-1] else "S'=")""",
        ("tests/test_classify.py::test_category_o_at_n1_matches_the_closed_form",),
    ),
    Mutant(
        "finite-dim budget drops its last half",
        "src/blvoa/classify.py",
        "for c in range(budget // 2 + 1):",
        "for c in range(budget // 2):",
        (CLOSED_FORM_COUNT,),
    ),
    Mutant(
        "oracle words with half the f_{eps_1} letters",
        "src/blvoa/zero_weight.py",
        "word += [short] * (2 * ks[0])",
        "word += [short] * ks[0]",
        (WORD_PATH,),
    ),
    Mutant(
        "oracle words with f_{eps_1+eps_j} for f_{eps_1-eps_j}",
        "src/blvoa/zero_weight.py",
        "word += [minus for (_, minus, _), k in zip(pairs, ks[1:])",
        "word += [minus for (_, _, minus), k in zip(pairs, ks[1:])",
        (WORD_PATH,),
    ),
    Mutant(
        "R_0 exponent filed under the wrong h",
        "src/blvoa/uea.py",
        "shift[idx - h] = p",
        "shift[idx - h - 1] = p",
        (RIGHT_INSERTION, WORD_PATH, "tests/test_p0_golden.py::test_p0_output_matches_golden"),
    ),
    Mutant(
        "R_0 letters outside the Cartan let through",
        "src/blvoa/zero_weight.py",
        "        if stray:\n",
        "        if False:\n",
        ("tests/test_zero_weight.py::test_word_result_outside_the_cartan_is_named",),
    ),
    Mutant(
        "p_E's exponents replaced by the h letters of E·x",
        "src/blvoa/uea.py",
        "tuple(map(operator.add, exps, shift))",
        "tuple(shift)",
        (RIGHT_INSERTION,),
    ),
    Mutant(
        "only the first term of p_E kept",
        "src/blvoa/uea.py",
        "for exps, c2 in poly.items():",
        "for exps, c2 in list(poly.items())[:1]:",
        (RIGHT_INSERTION,),
    ),
    Mutant(
        "R_0 rank check dropped",
        "src/blvoa/zero_weight.py",
        "    if r0.dim != targets[zero]:\n",
        "    if False:\n",
        ("tests/test_zero_weight.py::test_descent_names_a_space_that_closes_short",),
    ),
)


def run(mutant: Mutant) -> tuple[bool, float]:
    """(killed, seconds) for one mutant, in a temporary copy of the tree:
    killed when one of its tests fails."""
    start = time.monotonic()
    with tempfile.TemporaryDirectory(prefix="blvoa-mutant-") as tmp:
        for name in COPIED:
            src = ROOT / name
            if src.is_dir():
                ignore = shutil.ignore_patterns("__pycache__", "out")
                shutil.copytree(src, Path(tmp) / name, ignore=ignore)
            else:
                shutil.copy2(src, Path(tmp) / name)
        target = Path(tmp) / mutant.file
        text = target.read_text()
        if text.count(mutant.old) != 1:
            raise ValueError(f"{mutant.name}: its text is not once in {mutant.file}")
        target.write_text(text.replace(mutant.old, mutant.new))
        proc = subprocess.run(
            [sys.executable, "-B", "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
             *mutant.tests],
            cwd=tmp,
            capture_output=True,
            text=True,
        )
    if proc.returncode not in (0, 1):   # not a test outcome: a bad node id, say
        raise RuntimeError(
            f"{mutant.name}: pytest exited {proc.returncode}\n{proc.stdout[-2000:]}"
        )
    return proc.returncode == 1, time.monotonic() - start


def main(names: Optional[Sequence[str]] = None) -> int:
    chosen = [m for m in MUTANTS if not names or m.name in names]
    unknown = set(names or ()) - {m.name for m in MUTANTS}
    if unknown:
        print(f"unknown mutants: {sorted(unknown)}", file=sys.stderr)
        return 2
    start = time.monotonic()
    survivors = []
    for mutant in chosen:
        killed, seconds = run(mutant)
        verdict = "killed  " if killed else "SURVIVED"
        print(f"{verdict} {seconds:6.1f} s  {mutant.name}", flush=True)
        if not killed:
            survivors.append(mutant.name)
    killed = len(chosen) - len(survivors)
    print(f"{killed} of {len(chosen)} killed in {time.monotonic() - start:.1f} s")
    return 1 if survivors else 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))

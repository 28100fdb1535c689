"""Which functions of src/blvoa the program's callers enter: the CLI argv
of tests/test_cli.py, the benchmark's seeded jobs and the README library
example.  Run it from anywhere with

    python tests/surface.py

It first runs tests/test_cli.py under pytest in a child process, with this
module loaded as a plugin that records every argv the tests pass to
``blvoa.cli.main``.  Then, in this process and under a call tracer
(``sys.settrace``, call events only), it runs each distinct argv of those
and of every benchmark job for seeds 0-2 (perfbench/workloads.py) once as
text and once with --json, output discarded, and executes the Python
block under "## Library example" in README.md.  It prints how many argv
it ran and every function or method defined in src/blvoa that none of
them entered, as ``module.qualified-name``, and exits 0.  A function
listed there is test-only or dead unless it is a constructor, a dunder
method, a property or a documented library boundary.

The run takes about 10 s on a 2-CPU x86-64 machine and prints

    127 distinct argv (51 from tests/test_cli.py, 76 benchmark jobs), each as text and with --json
    never entered: 22 of 177 functions
      affine.VermaVector._space
      affine.VermaVector.level
      affine.VermaVector.__repr__
      affine.VacuumModule.element
      cli.console_main
      liealg.BasisElement.__repr__
      liealg.LieAlgebra.h
      rootsys.Weight.__repr__
      rootsys.Root.__repr__
      uea.Sparse._space
      uea.Sparse.__neg__
      uea.Sparse.__hash__
      uea.UEAElement.__mul__
      uea.UEAElement.__repr__
      uea.UEA.h
      uea.UEA.element
      uea.UEA.weight_of
      uea.UEA.weight_of.<locals>.mono_weight
      uea._common_grading
      uea._powers
      uea.CartanPolynomial.__rsub__
      uea.CartanPolynomial.evaluate

Of these, cli.console_main is the installed ``blvoa`` command,
CartanPolynomial.evaluate (with its helper _powers) is a README boundary,
and UEA.weight_of (with mono_weight and _common_grading) has no caller in
src: it stays because perfbench/tracer.py binds it by name.

Standard library only; pytest runs in the child, as for tests/mutants.py.
"""

from __future__ import annotations

import contextlib
import inspect
import io
import json
import os
import subprocess
import sys
import tempfile
import time
import types
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "blvoa"
ARGV_FILE = "BLVOA_SURFACE_ARGV"   # where the plugin writes the argv it saw

_seen: list[list[str]] = []


# -- the pytest plugin (loaded in the child with -p surface) -------------------


def pytest_configure(config) -> None:
    import blvoa.cli

    main = blvoa.cli.main

    def recording_main(argv=None):
        _seen.append(list(argv))
        return main(argv)

    blvoa.cli.main = recording_main


def pytest_unconfigure(config) -> None:
    with open(os.environ[ARGV_FILE], "w") as fh:
        json.dump(_seen, fh)


def cli_test_argv() -> list[list[str]]:
    """Every argv tests/test_cli.py passes to main, in order of first use."""
    with tempfile.TemporaryDirectory(prefix="blvoa-surface-") as tmp:
        out = Path(tmp) / "argv.json"
        path = os.pathsep.join([str(ROOT / "tests"), str(ROOT / "src")])
        env = dict(os.environ, PYTHONPATH=path, **{ARGV_FILE: str(out)})
        proc = subprocess.run(
            [sys.executable, "-B", "-m", "pytest", "-q", "-p", "no:cacheprovider",
             "-p", "surface", "tests/test_cli.py"],
            cwd=ROOT, env=env, capture_output=True, text=True,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"tests/test_cli.py failed\n{proc.stdout[-2000:]}")
        seen = json.loads(out.read_text())
    return list({tuple(a): a for a in seen}.values())


# -- the traced run ---------------------------------------------------------------


def defined_functions() -> list[types.CodeType]:
    """The code object of every def in src/blvoa, compiled from the files;
    class bodies and comprehensions are not functions."""
    out = []

    def walk(code: types.CodeType) -> None:
        for const in code.co_consts:
            if isinstance(const, types.CodeType):
                if const.co_flags & inspect.CO_NEWLOCALS and const.co_name[0] != "<":
                    out.append(const)
                walk(const)

    for path in sorted(SRC.glob("*.py")):
        walk(compile(path.read_text(), str(path), "exec"))
    return out


def _key(code: types.CodeType) -> tuple:
    return code.co_filename, code.co_firstlineno, code.co_name


def readme_example() -> str:
    text = (ROOT / "README.md").read_text()
    block = text.split("## Library example", 1)[1]
    return block.split("```python\n", 1)[1].split("```", 1)[0]


def main() -> int:
    start = time.monotonic()
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
    import workloads
    from blvoa.cli import main as cli_main

    tested = cli_test_argv()
    jobs = [
        job
        for name in workloads.WORKLOADS
        for seed in range(3)
        for job in workloads.jobs_for(name, seed)
    ]
    bench = list({tuple(a): a for a in jobs}.values())
    distinct = list({tuple(a): a for a in tested + bench}.values())

    entered: set = set()

    def tracer(frame, event, arg):
        entered.add(frame.f_code)

    sink = io.StringIO()
    sys.settrace(tracer)
    try:
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            for argv in distinct:
                cli_main(list(argv))
                if "--json" not in argv:
                    cli_main([*argv, "--json"])
                sink.seek(0)
                sink.truncate()
            exec(readme_example(), {"__name__": "readme_example"})
    finally:
        sys.settrace(None)

    entered_keys = {_key(code) for code in entered}
    defined = defined_functions()
    missed = [code for code in defined if _key(code) not in entered_keys]
    print(
        f"{len(distinct)} distinct argv ({len(tested)} from tests/test_cli.py,"
        f" {len(bench)} benchmark jobs), each as text and with --json"
    )
    print(f"never entered: {len(missed)} of {len(defined)} functions")
    for code in missed:
        name = getattr(code, "co_qualname", code.co_name)
        print(f"  {Path(code.co_filename).stem}.{name}")
    print(f"[{time.monotonic() - start:.1f} s]", file=sys.stderr)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

"""One pass of a workload in a child process.

Reads a JSON spec on stdin::

    {"workload": "oracle", "seed": 1,   # or "jobs": [[argv...], ...]
     "setup_only": false, "trace": null or a file to write spans to}

and writes one JSON object per line on stdout: first ``ready`` (the set-up
is done and the first job is about to start), then one line per job as it
finishes, then ``done`` with the process's peak RSS (and, when tracing,
the per-layer metrics).  Every job is one ``blvoa.cli.main([..., "--json"])``
call in this process, so each job builds its own LieAlgebra and UEA, as the
CLI does.  Importing blvoa from anywhere but this checkout's ``src`` is an
error.
"""

from __future__ import annotations

import contextlib
import io
import json
import resource
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"


def emit(out, record: dict) -> None:
    out.write(json.dumps(record) + "\n")
    out.flush()


def run_job(cli_main, argv: list[str], tracer) -> dict:
    stdout, stderr = io.StringIO(), io.StringIO()
    record: dict = {"argv": argv, "rc": None, "payload": None, "error": None}
    start = time.monotonic()
    try:
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            if tracer is None:
                record["rc"] = cli_main([*argv, "--json"])
            else:
                record["rc"] = tracer.run_job(argv, cli_main, [*argv, "--json"])
    except Exception:   # a crash is a failed job; the pass goes on
        record["error"] = traceback.format_exc(limit=8)
    record["start"], record["end"] = start, time.monotonic()
    try:
        record["payload"] = json.loads(stdout.getvalue())
    except ValueError:
        pass
    record["stderr"] = stderr.getvalue()[-2000:]
    return record


def main() -> int:
    spec = json.load(sys.stdin)
    out = sys.stdout
    sys.path.insert(0, str(SRC))
    import blvoa
    from blvoa.cli import main as cli_main

    if Path(blvoa.__file__).resolve().parent != SRC / "blvoa":
        print(f"blvoa imported from {blvoa.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import workloads

    jobs = spec.get("jobs") or workloads.jobs_for(spec["workload"], spec["seed"])
    tracer = None
    if spec.get("trace"):
        import tracer as tracer_mod

        tracer = tracer_mod.Tracer()
        tracer.install()
    emit(out, {"ready": time.monotonic()})
    if spec.get("setup_only"):
        return 0
    for argv in jobs:
        emit(out, run_job(cli_main, argv, tracer))
    done: dict = {
        "done": True,
        "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if tracer is not None:
        done["layers"] = tracer.layer_metrics()
        done["job_breakdown"] = tracer.job_breakdown()
        tracer.write(spec["trace"])
    emit(out, done)
    return 0


if __name__ == "__main__":
    sys.exit(main())

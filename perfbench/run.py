"""Benchmark of the blvoa CLI: whole jobs end to end, and each layer traced.

    python3 perfbench/run.py --workload oracle --seed 1 --seconds 40 --trace 0

Each pass runs the workload's jobs (see workloads.py) in a fresh child
process, one child at a time.  Passes repeat until ``--seconds`` would be
exceeded by one more; there is always at least one.  With ``--trace 0`` the
last line of output is a JSON object with the end-to-end metrics (medians
over the passes):

    wall_s         first job start to last job end, per pass
    slowest_job_s  the longest single job of a pass
    peak_rss_mb    the child process's ru_maxrss
    setup_s        child spawn to first job ready (interpreter start,
                   ``import blvoa``, input generation); median over the
                   passes and over extra set-up-only children

``fail_ratio`` (failed jobs / jobs attempted) is printed with them and is
carried by the ``failed`` and ``attempted`` keys.  With ``--trace 1`` one
traced pass follows the untraced ones; the last line then holds the
per-layer metrics of ``tracer.LAYER_METRICS``, including the tracing
overhead, and the spans are written to ``perfbench/out/``.

Every job's output is checked (workloads.check); if any job is wrong the
run stops after that pass, prints the failures and exits with code 1.
``--workload all`` runs every workload in turn.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

import tracer
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = HERE / "out"
RUN_DEADLINE_S = 170   # a run must end within 180 s
SETUP_SAMPLES = 5      # set-up-only children per run, after one warm-up
MEM_MB = 2048          # RSS at which a child is stopped
POLL_S = 0.2           # how often a running child's RSS and age are checked

END_TO_END_UNITS = {"wall_s": "s", "slowest_job_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}

# ROADMAP item 1 baseline points: (job, span name, seconds)
BASELINES = (
    ("check-singular --rank 4 --n 2", "liealg.structure_constants", 4.8),
    ("identities --rank 4", "liealg.structure_constants", 4.8),
    ("p0 --rank 2 --n 3", "zero_weight.generate_module", 12.0),
    ("p0 --rank 3 --n 2", "zero_weight.generate_module", 14.0),
    ("check-singular --rank 4 --n 2", "affine.check_singular", 5.5),
    ("identities --rank 4", "uea.identity_suite", 2.7),
)


@dataclass
class Pass:
    """Outcome of one child process running one job list."""

    jobs: list[list[str]]
    failures: list[tuple[int, str, str]] = field(default_factory=list)   # (job index, job, reason)
    setup_s: Optional[float] = None
    wall_s: Optional[float] = None
    slowest_job_s: Optional[float] = None
    rss_mb: Optional[float] = None
    duration_s: float = 0.0
    done: dict = field(default_factory=dict)


def rss_mb(pid: int) -> float:
    """Resident set size of a running process, 0 where /proc has none."""
    try:
        with open(f"/proc/{pid}/status") as fh:
            for line in fh:
                if line.startswith("VmRSS:"):
                    return int(line.split()[1]) / 1024
    except OSError:
        pass
    return 0.0


def run_child(spec: dict, timeout: float, mem_mb: float = MEM_MB) -> tuple[float, list[dict], str]:
    """Start a worker, feed it ``spec``, and collect its output lines.

    Returns (spawn time, records, why it ended early or "").  A worker still
    running at ``timeout``, or whose RSS passes ``mem_mb`` (so that a
    runaway job is stopped before the OOM killer acts), is killed and
    waited for.
    """
    env = dict(os.environ, PYTHONHASHSEED="0")
    spawned = time.monotonic()
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "worker.py")],
        stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, cwd=ROOT, env=env,
    )
    feed: Optional[str] = json.dumps(spec)
    ended = ""
    try:
        while True:
            try:
                out, err = proc.communicate(feed, timeout=POLL_S)
                break
            except subprocess.TimeoutExpired:
                feed = None   # sent on the first call; output so far is kept
                if rss_mb(proc.pid) > mem_mb:
                    ended = f"worker stopped by the memory guard at {mem_mb} MB"
                elif time.monotonic() - spawned > timeout:
                    ended = f"worker killed after {timeout:.0f} s"
                if ended:
                    proc.kill()
                    out, err = proc.communicate()
                    break
    except BaseException:   # interrupted: leave no worker behind
        proc.kill()
        proc.wait()
        raise
    if not ended and proc.returncode:
        ended = f"worker exited with code {proc.returncode}"
    records = []
    for line in out.splitlines():
        try:
            records.append(json.loads(line))
        except ValueError:   # a line cut short by the kill
            break
    if ended and err.strip():
        ended += ": " + err.strip().splitlines()[-1]
    return spawned, records, ended


def run_pass(spec: dict, jobs: list[list[str]], timeout: float, mem_mb: float = MEM_MB) -> Pass:
    """Run one pass and check every job; a job the worker never reported
    (killed by the timeout or the memory guard, or crashed) counts as
    failed."""
    spawned, records, ended = run_child(spec, timeout, mem_mb)
    p = Pass(jobs=jobs, duration_s=time.monotonic() - spawned)
    ready = records[0] if records and "ready" in records[0] else None
    if ready is not None:
        p.setup_s = ready["ready"] - spawned
    results = [r for r in records if "argv" in r]
    for i, argv in enumerate(jobs):
        key = workloads.job_key(argv)
        if i >= len(results):
            p.failures.append((i, key, f"not run: {ended or 'worker stopped early'}"))
            continue
        r = results[i]
        if r["argv"] != argv:
            problems = [f"worker ran {workloads.job_key(r['argv'])!r}"]
        elif r["error"]:
            problems = [r["error"].strip().splitlines()[-1]]
        else:
            problems = workloads.check(argv, r["rc"], r["payload"])
        if problems and r["stderr"].strip():
            problems.append("stderr: " + r["stderr"].strip().splitlines()[-1])
        p.failures += [(i, key, why) for why in problems]
    p.done = records[-1] if records and records[-1].get("done") else {}
    if len(results) == len(jobs) and results:
        p.wall_s = results[-1]["end"] - results[0]["start"]
        p.slowest_job_s = max(r["end"] - r["start"] for r in results)
        p.rss_mb = p.done.get("rss_mb")
    return p


def tally(passes: list[Pass]) -> tuple[int, int]:
    """(jobs attempted, jobs failed) over the passes; fail_ratio is their
    quotient."""
    attempted = sum(len(p.jobs) for p in passes)
    failed = sum(len({i for i, _, _ in p.failures}) for p in passes)
    return attempted, failed


def median_of(values) -> Optional[float]:
    values = [v for v in values if v is not None]
    return statistics.median(values) if values else None


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    deadline = time.monotonic() + RUN_DEADLINE_S
    jobs = workloads.jobs_for(workload, seed)
    spec = {"workload": workload, "seed": seed}

    setups = []
    for i in range(SETUP_SAMPLES + 1):   # the first one warms the bytecode cache
        spawned, records, _ = run_child(dict(spec, setup_only=True), deadline - time.monotonic())
        if i and records and "ready" in records[0]:
            setups.append(records[0]["ready"] - spawned)

    passes: list[Pass] = []
    measure_start = time.monotonic()
    while True:
        p = run_pass(spec, jobs, deadline - time.monotonic())
        passes.append(p)
        elapsed = time.monotonic() - measure_start
        if p.failures or elapsed + p.duration_s > seconds:
            break
    traced = None
    if trace and not passes[-1].failures:
        OUT_DIR.mkdir(exist_ok=True)
        path = OUT_DIR / f"trace-{workload}.json"
        traced = run_pass(dict(spec, trace=str(path)), jobs, deadline - time.monotonic())
        passes.append(traced)

    untraced = [p for p in passes if p is not traced]
    end_to_end = {
        "wall_s": median_of(p.wall_s for p in untraced),
        "slowest_job_s": median_of(p.slowest_job_s for p in untraced),
        "peak_rss_mb": median_of(p.rss_mb for p in untraced),
        "setup_s": median_of(setups + [p.setup_s for p in untraced]),
    }
    attempted, failed = tally(passes)
    result = {
        "workload": workload,
        "seed": seed,
        "passes": len(untraced),
        "attempted": attempted,
        "failed": failed,
        "failures": [(key, why) for p in passes for _, key, why in p.failures],
        "end_to_end": end_to_end,
        "layers": None,
        "job_breakdown": [],
    }
    if traced is not None and not traced.failures:
        layers = dict(traced.done["layers"])
        layers["trace.wall_s"] = traced.wall_s
        layers["trace.overhead_s"] = traced.wall_s - end_to_end["wall_s"]
        result["layers"] = layers
        result["job_breakdown"] = traced.done["job_breakdown"]
    return result


def metric_block(result: dict, trace: bool) -> dict:
    if trace:
        return {
            name: {"value": result["layers"][name], "unit": unit}
            for name, (unit, _, _) in tracer.LAYER_METRICS.items()
        }
    return {
        name: {"value": result["end_to_end"][name], "unit": unit}
        for name, unit in END_TO_END_UNITS.items()
    }


def report(result: dict, trace: bool) -> None:
    w = result["workload"]
    attempted, failed = result["attempted"], result["failed"]
    print(f"workload {w}  seed {result['seed']}  untraced passes {result['passes']}")
    for name, unit in END_TO_END_UNITS.items():
        value = result["end_to_end"][name]
        print(f"  {name:<15} {'-' if value is None else f'{value:.4f}'} {unit}")
    print(f"  {'fail_ratio':<15} {failed / attempted:.4f} ratio ({failed}/{attempted} jobs)")
    for key, why in result["failures"]:
        print(f"  FAIL {key}: {why}")
    if trace and result["layers"]:
        print(f"  per-layer metrics of the traced pass (tracing overhead "
              f"{result['layers']['trace.overhead_s']:.3f} s):")
        for name, (unit, _, moves) in tracer.LAYER_METRICS.items():
            print(f"    {name:<38} {result['layers'][name]:>14.6g} {unit:<6} -> {moves}")
        by_job = {workloads.job_key(j["argv"]): j["s"] for j in result["job_breakdown"]}
        for job, span, expected in BASELINES:
            if job in by_job:
                got = by_job[job].get(span, 0.0)
                off = got / expected - 1
                flag = "  (off by more than a fifth)" if abs(off) > 0.2 else ""
                print(f"  baseline {span} in `{job}`: {got:.2f} s, ROADMAP {expected} s ({off:+.0%}){flag}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=40)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "blvoa" / "__init__.py").is_file():
        print(f"no blvoa sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    results = [run_workload(w, args.seed, args.seconds, bool(args.trace)) for w in names]
    for r in results:
        report(r, bool(args.trace))
    failed = sum(r["failed"] for r in results)
    if len(results) == 1:
        metrics = metric_block(results[0], bool(args.trace)) if not failed else {}
    else:
        metrics = {
            f"{r['workload']}.{name}": m
            for r in results if not r["failed"]
            for name, m in metric_block(r, bool(args.trace)).items()
        }
    print(json.dumps({
        "correct": failed == 0,
        "attempted": sum(r["attempted"] for r in results),
        "failed": failed,
        "metrics": metrics,
    }))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())

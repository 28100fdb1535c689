"""Tests of the benchmark itself: job generation, output checks, and how a
pass counts failures when an output is wrong or its worker is stopped."""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
import tracer
import workloads

HERE = Path(__file__).resolve().parent

DIM_JOBS = [
    ["dim", "--rank", "2", "--weight", "1,1"],
    ["dim", "--rank", "4", "--weight", "1,0,0,1"],
]
SLOW_JOB = ["check-singular", "--rank", "3", "--n", "20"]   # ~5 s, ~110 MB


def test_jobs_depend_only_on_the_seed():
    for w in workloads.WORKLOADS:
        assert workloads.jobs_for(w, 3) == workloads.jobs_for(w, 3)
        keys = {workloads.job_key(a) for a in workloads.jobs_for(w, 3)}
        assert {workloads.job_key(a) for a in workloads.FIXED[w]} <= keys
    assert workloads.jobs_for("rank4", 3) != workloads.jobs_for("rank4", 4)
    ref = workloads.reference()["jobs"]
    for argv in workloads.jobs_for("rank4", 5):
        assert argv[0] == "dim" or workloads.job_key(argv) in ref


def test_weyl_dim_formula():
    assert workloads.weyl_dim_b([1, 0]) == 5     # vector of so(5)
    assert workloads.weyl_dim_b([0, 1]) == 4     # spinor of so(5)
    assert workloads.weyl_dim_b([0, 2]) == 10    # adjoint of so(5)
    assert workloads.weyl_dim_b([0, 1, 0]) == 21  # adjoint of so(7)
    assert workloads.weyl_dim_b([0, 0, 0, 1]) == 16


def test_check_catches_wrong_outputs():
    argv = ["check-singular", "--rank", "3", "--n", "16", "--level", "0"]
    good = {"command": "check-singular", "level": "0/1", "entries": [], "status": "FAIL:136"}
    assert workloads.check(argv, 0, good) == []
    assert workloads.check(argv, 0, dict(good, status="PASS"))
    assert workloads.check(argv, 2, good)
    assert workloads.check(argv, 0, None)
    on_level = ["check-singular", "--rank", "3", "--n", "20"]
    wrong = {"command": "check-singular", "level": "33/2", "entries": [], "status": "PASS"}
    assert any("level" in p for p in workloads.check(on_level, 0, wrong))


def test_tampered_output_counts_in_fail_ratio(monkeypatch):
    spec = {"jobs": DIM_JOBS}
    clean = run.run_pass(spec, DIM_JOBS, timeout=60)
    assert clean.failures == []
    assert run.tally([clean]) == (2, 0)

    real_run_child = run.run_child

    def tampered(*args, **kwargs):
        spawned, records, ended = real_run_child(*args, **kwargs)
        job = [r for r in records if "argv" in r][1]
        job["payload"]["status"] = "dim=127"
        return spawned, records, ended

    monkeypatch.setattr(run, "run_child", tampered)
    p = run.run_pass(spec, DIM_JOBS, timeout=60)
    assert [key for _, key, _ in p.failures] == ["dim --rank 4 --weight 1,0,0,1"]
    assert run.tally([clean, p]) == (4, 1)


@pytest.mark.parametrize("limit", ["timeout", "memory"])
def test_stopped_worker_counts_remaining_jobs_failed(limit):
    jobs = [DIM_JOBS[0], SLOW_JOB, DIM_JOBS[1]]
    if limit == "timeout":
        p = run.run_pass({"jobs": jobs}, jobs, timeout=1.0)
        why = "killed"
    else:
        p = run.run_pass({"jobs": jobs}, jobs, timeout=60, mem_mb=40)
        why = "memory guard"
    failed = sorted({i for i, _, _ in p.failures})
    assert failed == [1, 2]
    assert all(why in reason for _, _, reason in p.failures)
    assert p.wall_s is None
    assert run.tally([p]) == (3, 2)


def test_traced_pass_reports_every_layer_metric(tmp_path):
    jobs = [["p0", "--rank", "2", "--n", "1"], DIM_JOBS[1]]
    path = tmp_path / "trace.json"
    p = run.run_pass({"jobs": jobs, "trace": str(path)}, jobs, timeout=60)
    layers = p.done["layers"]
    expected = {n for n in tracer.LAYER_METRICS if not n.startswith("trace.")}
    assert set(layers) == expected
    assert layers["uea.ad.calls"] > 0 and layers["rootsys.weyl_dim.calls"] >= 2
    assert 0 < layers["zero_weight.useful_ratio"] <= 1
    assert layers["zero_weight.p0_basis.s"] >= layers["zero_weight.generate_module.s"] > 0
    spans = json.loads(path.read_text())
    assert [j["argv"] for j in spans["jobs"]] == jobs
    assert spans["names"][spans["spans"][0][0]] == tracer.CLI_SPAN


def test_benchmark_json_matches_the_code():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} == {
        n: (unit, better) for n, (unit, better, _) in tracer.LAYER_METRICS.items()
    }


def test_fails_without_the_program_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "vacuum",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""

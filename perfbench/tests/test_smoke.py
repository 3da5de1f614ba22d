"""Smoke test: each workload on one job per command over su(2)/u(1) and
su(2)+su(2), untraced and traced, through the benchmark's own runner.

    PYTHONPATH=src python3 -m pytest -q perfbench/tests
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH)]

import run  # noqa: E402
import workloads  # noqa: E402

DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())


def smoke(name):
    """The workload's first job of each command on a small instance."""
    wl = workloads.WORKLOADS[name](0)
    keep, seen = [], set()
    for job in wl.jobs:
        instance = job.name.split(":")[1]
        if job.command not in seen and ("su2_u1" in instance
                                        or "su2su2" in instance):
            keep.append(job)
            seen.add(job.command)
    assert seen == set(workloads.COMMANDS)
    names = {job.name for job in keep}
    assert all(job.after in names for job in keep if job.after)
    return workloads.Workload(name, wl.specs, keep)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_workload_smoke(name, tmp_path, monkeypatch):
    monkeypatch.setattr(run, "WORK", tmp_path / "work")
    wl = smoke(name)
    run.clear_work()
    run.write_specs(wl)
    env = run.job_env(ROOT)
    digests = {}

    results, wall = run.run_round(wl, env, False, digests)
    assert [r.problems for r in results] == [[]] * len(results)
    values = run.end_to_end([results], [wall], 0.001)
    for m in DECLARED["end_to_end"]:
        assert values[m["name"]] > 0, m["name"]

    traced, traced_wall = run.run_round(wl, env, True, digests)
    # tracing leaves every report byte-identical (digests are shared)
    assert [r.problems for r in traced] == [[]] * len(traced)
    values = run.per_layer(results, traced, traced_wall / wall - 1)
    for m in DECLARED["per_layer"]:
        if m["name"] != "trace.overhead_frac":
            assert values[m["name"]] > 0, m["name"]


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns(".work", "__pycache__"))
    p = subprocess.run([sys.executable, "perfbench/run.py", "--workload",
                        "flags", "--seed", "0", "--seconds", "1", "--trace",
                        "0"], cwd=tmp_path, capture_output=True, text=True,
                       timeout=60)
    assert p.returncode != 0
    assert '"metrics"' not in p.stdout

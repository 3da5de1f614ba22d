"""NOTES.json records the job lists that the workload code generates.

    PYTHONPATH=src python3 -m pytest -q perfbench/tests
"""

import collections
import json
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(BENCH)]

import workloads  # noqa: E402

NOTES = json.loads((BENCH / "NOTES.json").read_text())


def test_job_lists_match_the_code():
    seed = NOTES["environment"]["job_lists_for_seed"]
    assert set(NOTES["workloads"]) == set(workloads.WORKLOADS)
    for name, make in workloads.WORKLOADS.items():
        wl = make(seed)
        recorded = NOTES["workloads"][name]
        assert recorded["jobs"] == [j.name for j in wl.jobs]
        assert recorded["jobs_per_command"] == dict(
            collections.Counter(j.command for j in wl.jobs))


def test_time_limits_match_the_code():
    limits = NOTES["method"]["time_limit_s"]
    assert limits["classify"] == workloads.CLASSIFY_LIMIT_S
    assert limits["every other command"] == workloads.LIMIT_S

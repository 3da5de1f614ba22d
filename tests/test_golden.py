"""Golden CLI reports: every command on the small instances must reproduce
its committed report byte for byte, with the same exit code.

The reports and tests/golden/manifest.json are written by
tests/golden/make_golden.py; this test only reads them.  A case with a
"sha256" holds no file: its report must have that digest and byte length.
"""

import hashlib
import json
from pathlib import Path

import pytest

from liecx import cli, exact, liealg

from conftest import RepeatCounter

GOLDEN = Path(__file__).resolve().parent / "golden"
MANIFEST = json.loads((GOLDEN / "manifest.json").read_text())


@pytest.mark.parametrize("case", MANIFEST, ids=[c["file"] for c in MANIFEST])
def test_golden_report(tmp_path, case):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps(case["spec"]))
    out = tmp_path / "report.json"
    code = cli.main(["--spec", str(spec), "--command", case["command"],
                     "--out", str(out), *case["args"]])
    assert code == case["exit_code"]
    report = out.read_bytes()
    if "sha256" in case:
        assert (len(report), hashlib.sha256(report).hexdigest()) \
            == (case["bytes"], case["sha256"])
    else:
        assert report == (GOLDEN / case["file"]).read_bytes()


def test_golden_covers_every_command():
    assert {c["command"] for c in MANIFEST} == set(cli.COMMANDS)


def test_no_command_derives_the_same_fact_twice(tmp_path, monkeypatch):
    # Each file-held case once more, counting the calls of the subspace
    # constructions that repeat an earlier call's subspaces in the same
    # command.  A command reads what it needs of g/h, of its canonical m
    # and of each J once; no repeat is allowed.
    counter = RepeatCounter(
        monkeypatch, liealg.centralizer, liealg.center, liealg.derived,
        liealg.own_algebra, liealg.is_closed, exact.relative_complement)
    spec, out = tmp_path / "spec.json", tmp_path / "report.json"
    repeated = {}
    for case in MANIFEST:
        if "sha256" in case:
            continue
        spec.write_text(json.dumps(case["spec"]))
        code, repeats = counter.run(cli.main, [
            "--spec", str(spec), "--command", case["command"],
            "--out", str(out), *case["args"]])
        assert code == case["exit_code"]
        if repeats:
            repeated[case["file"]] = sorted(
                (name, count) for (name, _), count in repeats.items())
    assert repeated == {}

"""Repository hygiene: the benchmark's traced names and imports still
resolve, no library module imports a name it never uses, and importing the
CLI stays cheap."""

import ast
import cProfile
import importlib
import importlib.util
import json
import os
import pstats
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from liecx import cli, exact
from liecx.exact import GQ, Vec

from conftest import profiled

ROOT = Path(__file__).resolve().parents[1]


def _perfbench_module(name):
    spec = importlib.util.spec_from_file_location(
        f"perfbench_{name}", ROOT / "perfbench" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _traced_entries():
    return _perfbench_module("traced_job").TRACED


@pytest.mark.parametrize("entry", _traced_entries(), ids=lambda e: e[0])
def test_traced_name_resolves(entry):
    # the traced round looks each name up exactly this way
    _, module, cls, attr = entry
    owner = importlib.import_module(f"liecx.{module}")
    if cls is not None:
        owner = getattr(owner, cls)
    assert callable(vars(owner)[attr])


# one process: the benchmark's tracer wraps liecx, then the su(2)/u(1) job
# of every CLI command runs in it; prints the tracer's call counts
_TRACED_ROUND = """
import importlib.util, json, random, sys, tempfile
from pathlib import Path
bench = Path(sys.argv[1])
sys.path[:0] = [str(bench)]
spec = importlib.util.spec_from_file_location("traced_job",
                                              bench / "traced_job.py")
traced_job = importlib.util.module_from_spec(spec)
spec.loader.exec_module(traced_job)
import workloads
import liecx.cli
tracer = traced_job.Tracer()
tracer.install()
wl = workloads._Builder("su2_u1").floor(random.Random(0))
codes, reports = {}, {}
with tempfile.TemporaryDirectory() as tmp:
    for k, job in enumerate(wl.jobs):
        base = wl.specs[job.spec]
        if job.after:
            base = dict(base, j=reports[job.after]["j"])
        path, out = Path(tmp) / f"{k}.spec.json", Path(tmp) / f"{k}.json"
        path.write_text(json.dumps(base))
        code = liecx.cli.main(["--spec", str(path), "--command",
                               job.command, "--out", str(out), *job.args])
        codes[job.name] = code == job.expect_code
        reports[job.name] = json.loads(out.read_text())
print(json.dumps({"commands": sorted(job.command for job in wl.jobs),
                  "codes": codes,
                  "calls": {name: s[0] for name, s in tracer.stats.items()}}))
"""


def test_every_traced_name_is_reached():
    # the benchmark's smoke test needs every traced metric above 0; a name
    # that no command reaches any more would fail it
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    out = subprocess.run(
        [sys.executable, "-c", _TRACED_ROUND, str(ROOT / "perfbench")],
        env=env, check=True, capture_output=True, text=True,
        timeout=300).stdout
    result = json.loads(out)
    assert sorted(result["commands"]) == sorted(cli.COMMANDS)
    assert all(result["codes"].values()), result["codes"]
    calls = result["calls"]
    assert {name: calls.get(name, 0) for name, *_ in _traced_entries()
            if not calls.get(name)} == {}


def _benchmark_imports():
    out = []
    for path in sorted((ROOT / "perfbench").rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and node.module \
                    and node.module.split(".")[0] == "liecx":
                out.extend((path.relative_to(ROOT).as_posix(), node.module,
                            a.name) for a in node.names)
    return out


@pytest.mark.parametrize("entry", _benchmark_imports(),
                         ids=lambda e: f"{e[0]}:{e[1]}.{e[2]}")
def test_benchmark_imports_resolve(entry):
    # the benchmark's files are fixed; every liecx name they import must stay
    _, module, name = entry
    assert hasattr(importlib.import_module(module), name)


MODULES = sorted(p for p in (ROOT / "src" / "liecx").glob("*.py")
                 if p.name != "__init__.py")


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    tree = ast.parse(path.read_text())
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for a in node.names:
                imported[a.asname or a.name] = node.lineno
        elif isinstance(node, ast.Import):
            for a in node.names:
                imported[(a.asname or a.name).split(".")[0]] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    assert {name: line for name, line in imported.items()
            if name not in used} == {}


# names of src/liecx kept for the tests alone, as deliberate oracles
ORACLES = frozenset()


def _referenced(path):
    """(name, line) for each name, attribute and string constant of path."""
    for node in ast.walk(ast.parse(path.read_text())):
        name = (node.id if isinstance(node, ast.Name)
                else node.attr if isinstance(node, ast.Attribute)
                else node.value if isinstance(node, ast.Constant)
                and isinstance(node.value, str) else None)
        if name:
            yield name, node.lineno


def _definitions(path):
    """The functions, classes and methods of path, dunders aside."""
    for node in ast.parse(path.read_text()).body:
        for d in [node, *node.body] if isinstance(node, ast.ClassDef) \
                else [node]:
            if isinstance(d, (ast.FunctionDef, ast.ClassDef)) \
                    and not (d.name.startswith("__") and d.name.endswith("__")):
                yield d


def test_every_library_name_has_a_caller_beyond_the_tests():
    # each is named by other library code or by the benchmark, which looks
    # some up by string; code that only tests read is an oracle, or it goes
    refs = [(path, name, line)
            for path in [*MODULES, *sorted((ROOT / "perfbench").rglob("*.py"))]
            for name, line in _referenced(path)]
    unused = [f"{path.name}:{d.lineno} {d.name}"
              for path in MODULES for d in _definitions(path)
              if d.name not in ORACLES and not any(
                  name == d.name
                  and not (where == path and d.lineno <= line <= d.end_lineno)
                  for where, name, line in refs)]
    assert unused == []


def test_only_the_catalog_builds_a_subalgebra():
    # library routines take and return a Subspace, with g passed first; the
    # Subalgebra wrapper is only the catalog's certified h, which quotient
    # takes and unwraps
    builds, hops = [], []
    for path in sorted((ROOT / "src" / "liecx").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            f = getattr(node, "func", None)
            if isinstance(node, ast.Call) and (
                    isinstance(f, ast.Name) and f.id == "Subalgebra"
                    or isinstance(f, ast.Attribute) and f.attr == "span"
                    and getattr(f.value, "id", None) == "Subalgebra"):
                builds.append((path.name, node.lineno))
            if isinstance(node, ast.Attribute) and node.attr == "space" \
                    and getattr(node.value, "attr", None) == "space":
                hops.append((path.name, node.lineno))
    assert {name for name, _ in builds} == {"catalog.py"}, builds
    assert hops == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_only_exact_reads_numerators(path):
    # exact converts GQ scalars to integer rows and back; every other module
    # goes through it
    tree = ast.parse(path.read_text())
    reads = [node.lineno for node in ast.walk(tree)
             if isinstance(node, ast.Attribute)
             and node.attr in ("numerator", "denominator")]
    assert reads == [] or path.name == "exact.py"


def _modules_loaded_by(module):
    """The modules a fresh interpreter loads to import module."""
    code = ("import sys\n"
            "before = set(sys.modules)\n"
            f"import {module}\n"
            "print(' '.join(sorted(set(sys.modules) - before)))\n")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True, timeout=60).stdout
    return set(out.split())


def test_the_cli_input_surface(monkeypatch):
    # data in the spec, the selector and run options as flags, each input
    # by one route
    allowed = {}
    require = cli._require_keys

    def spy(obj, keys, required, where):
        allowed.setdefault(where, set(keys))
        return require(obj, keys, required, where)
    monkeypatch.setattr(cli, "_require_keys", spy)
    cli.parse_obj({"algebra": {"kind": "su", "n": 2}})
    assert allowed["spec"] == {"algebra", "subalgebra", "j", "j1"}
    flags = set(cli._FLAGS)
    assert flags - {"-h", "--help"} == {
        "--spec", "--command", "--parabolic-index", "--seed", "--out"}


def test_cli_import_pulls_in_no_introspection_modules():
    # every CLI process pays for its imports; dataclasses alone brings in
    # inspect, ast, dis and tokenize
    added = _modules_loaded_by("liecx.cli")
    assert "liecx.cli" in added
    assert added & {"dataclasses", "inspect"} == set()


def test_cli_import_loads_no_argument_parser():
    # one pass over argv reads the five flags; argparse and the gettext it
    # loads cost each process about 1.5 ms
    assert _modules_loaded_by("liecx.cli") & {"argparse", "gettext"} == set()


def test_the_package_root_imports_no_module():
    # importing one module of the library loads that module alone
    added = _modules_loaded_by("liecx.exact")
    assert {m for m in added if m.split(".")[0] == "liecx"} \
        == {"liecx", "liecx.exact"}


@pytest.mark.parametrize("path", sorted((ROOT / "src" / "liecx").glob("*.py")),
                         ids=lambda p: p.name)
def test_only_exact_and_cli_touch_fractions_or_build_gq(path):
    # the library computes on Vec; Fraction and GQ are the boundary scalars
    # of parsing, reports and indexing, which exact and cli own
    tree = ast.parse(path.read_text())
    uses = [node.lineno for node in ast.walk(tree)
            if isinstance(node, ast.Import)
            and any(a.name == "fractions" for a in node.names)
            or isinstance(node, ast.ImportFrom) and node.module == "fractions"
            or isinstance(node, ast.Call) and "GQ" in (
                getattr(node.func, "id", None), getattr(node.func, "attr", None))]
    assert uses == [] or path.name in ("exact.py", "cli.py")


def test_dense_classify_builds_few_fractions_and_gq(tmp_path):
    # the in-process classify of the rotated so(5)/t, the benchmark's dense
    # instance (seed 0), built 19,978 Fractions and 11,242 GQ when every
    # vector was a tuple of GQ
    specs = _perfbench_module("specs")
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(
        specs.dense_spec([("so", 5)], random.Random(0))))
    code, calls = profiled(cli.main, [
        "--spec", str(path), "--command", "classify",
        "--out", str(tmp_path / "report.json")])
    assert code == 0
    assert calls(Fraction.__new__) <= 5000
    assert calls(GQ.__init__) <= 3000


def _golden_case(name):
    manifest = json.loads((ROOT / "tests" / "golden" / "manifest.json")
                          .read_text())
    case = next(c for c in manifest if c["file"] == name)
    return case["spec"], case["command"], case["args"]


def test_the_library_computes_on_vec_alone(tmp_path, monkeypatch):
    # inside the library a scalar is a 1-Vec and a vector a Vec: parsing
    # builds the only Fractions, vec() is handed Vecs alone, and no GQ is
    # built; once, classify of so(5)/t built 16 eigenvalue Fractions and
    # converted 80 boxed scalars
    specs = _perfbench_module("specs")
    runs = [_golden_case("so5_t__classify.json"),
            (specs.dense_spec([("so", 5)], random.Random(0)), "classify", []),
            _golden_case("su3_t__check_integrable.json"),
            _golden_case("su3_t__verify_seed0.json")]
    handed = set()
    vec = exact.vec

    def spy(entries):
        handed.add(type(entries))
        return vec(entries)
    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "liecx" and getattr(module, "vec", None) \
                is vec:
            monkeypatch.setattr(module, "vec", spy)
    path, out = tmp_path / "spec.json", tmp_path / "report.json"
    for spec, command, args in runs:
        path.write_text(json.dumps(spec))
        prof = cProfile.Profile()
        code = prof.runcall(cli.main, ["--spec", str(path), "--command",
                                       command, "--out", str(out), *args])
        assert code == 0, (command, out.read_text())
        stats = pstats.Stats(prof).stats

        def callers(fn):
            c = fn.__code__
            return {caller[2] for key, v in stats.items()
                    if key == (c.co_filename, c.co_firstlineno, c.co_name)
                    for caller in v[4]}
        assert callers(Fraction.__new__) <= {"parse_rational"}, command
        assert callers(GQ.__init__) == set(), command
    assert handed == {Vec}

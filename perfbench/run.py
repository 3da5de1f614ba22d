"""The liecx benchmark: seeded CLI workloads checked by independent oracles.

Run from the root of a checkout:

    python3 perfbench/run.py --workload flags --seed 0 --seconds 30 --trace 0

Each job is one `python -m liecx.cli` process with src/ on the path, so it
pays interpreter start-up, import, spec parsing and the catalog build like a
user does. Jobs run one after another from this process, all on one CPU: a
closed loop with one client. A round runs the workload's whole job list once;
rounds repeat while the last round's length still fits in --seconds.

With --trace 0 the last line of stdout is a JSON object with the end-to-end
metrics of BENCHMARK.json; the lines before it give every job and each
command's summed wall time (median over rounds). With --trace 1 the benchmark
runs one untraced and one traced round (each job under
perfbench/traced_job.py) and reports the per-layer metrics instead: the
merged traces, the tracing overhead, and the untraced per-command wall times.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
WORK = HERE / ".work"
SETUP_MIN_REPEATS = 5
SETUP_MIN_S = 1.0
# how long a job stopped for running out of time may take to write its trace
GRACE_S = 5.0


@dataclass
class Result:
    job: workloads.Job
    wall_s: float
    code: int | None
    report: dict | None
    report_bytes: int
    problems: list
    timed_out: bool
    trace: Path | None


def clear_work():
    shutil.rmtree(WORK, ignore_errors=True)
    for sub in ("specs", "reports", "traces"):
        (WORK / sub).mkdir(parents=True)


def write_specs(wl):
    """Write the workload's spec files; returns their digest."""
    blobs = {name: json.dumps(obj) for name, obj in wl.specs.items()}
    for name, text in blobs.items():
        (WORK / "specs" / name).write_text(text)
    return hashlib.sha256(json.dumps(blobs).encode()).hexdigest()


def setup(workload, seed):
    """Generate the workload and write its specs, several times; returns the
    workload and the median time of one generate-and-write."""
    times, digests = [], set()
    while len(times) < SETUP_MIN_REPEATS or sum(times) < SETUP_MIN_S:
        clear_work()
        t0 = time.perf_counter()
        wl = workloads.WORKLOADS[workload](seed)
        digests.add(write_specs(wl))
        times.append(time.perf_counter() - t0)
    if len(digests) != 1:
        raise RuntimeError("spec generation is not deterministic")
    return wl, statistics.median(times)


def job_env(root):
    """The environment of a job: liecx imported from the checkout's src/."""
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(root / "src"), os.environ.get("PYTHONPATH")])))


def run_job(wl, index, job, done, env, traced, digests):
    spec = WORK / "specs" / job.spec
    construct = None
    if job.after:
        # decompose the J that this round's construct job reported
        construct = done[job.after].report or {}
        base = wl.specs[job.spec]
        spec.write_text(json.dumps(
            dict(base, j=construct["j"]) if "j" in construct else base))
    out = WORK / "reports" / f"{index}.json"
    out.unlink(missing_ok=True)
    args = ["--spec", str(spec), "--command", job.command, "--out", str(out),
            *job.args]
    trace = None
    t0 = time.perf_counter()
    if traced:
        trace = WORK / "traces" / f"{index}.json"
        trace.unlink(missing_ok=True)
        cmd = [sys.executable, str(HERE / "traced_job.py"), str(trace),
               repr(time.monotonic()), "--", *args]
    else:
        cmd = [sys.executable, "-m", "liecx.cli", *args]
    proc = subprocess.Popen(cmd, env=env, stdout=subprocess.DEVNULL,
                            stderr=subprocess.PIPE)
    timed_out = False
    try:
        _, err = proc.communicate(timeout=job.limit_s)
    except subprocess.TimeoutExpired:
        timed_out = True
        proc.terminate()
        try:
            _, err = proc.communicate(timeout=GRACE_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            _, err = proc.communicate()
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    wall = time.perf_counter() - t0

    problems = []
    report, raw = None, b""
    if traced and not trace.is_file():
        problems.append("no trace written")
    if timed_out:
        problems.append(f"time-out after {job.limit_s:g} s")
    else:
        if b"Traceback" in err:
            problems.append("traceback on stderr")
        try:
            raw = out.read_bytes()
            report = json.loads(raw)
        except (OSError, ValueError):
            pass
        problems += workloads.check_report(job, proc.returncode, report,
                                           construct)
        digest = hashlib.sha256(raw).hexdigest()
        if digests.setdefault(job.name, digest) != digest:
            problems.append("report differs from an earlier round")
    return Result(job, wall, None if timed_out else proc.returncode, report,
                  len(raw), problems, timed_out, trace)


def run_round(wl, env, traced, digests):
    done = {}
    t0 = time.perf_counter()
    for index, job in enumerate(wl.jobs):
        r = run_job(wl, index, job, done, env, traced, digests)
        done[job.name] = r
        status = "ok" if not r.problems else "FAILED: " + "; ".join(r.problems)
        print(f"  {job.name:40s} {r.wall_s:8.3f} s  exit {r.code}  {status}",
              flush=True)
    return list(done.values()), time.perf_counter() - t0


def command_seconds(rounds):
    """Per command: the median over rounds of its jobs' summed wall time."""
    return {command: statistics.median(
        sum(r.wall_s for r in rnd if r.job.command == command)
        for rnd in rounds) for command in workloads.COMMANDS}


def end_to_end(rounds, walls, setup_s):
    results = [r for rnd in rounds for r in rnd]
    failed = sum(1 for r in results if r.problems)
    return {
        "setup_s": setup_s,
        "jobs_per_s": len(results) / sum(walls),
        "ok_frac": (len(results) - failed) / len(results),
        "peak_rss_mb":
            resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024,
    }


def per_layer(untraced, results, overhead):
    """Merge the per-job traces of one traced round into layer metrics, next
    to the per-command wall times of the untraced round."""
    stats = defaultdict(lambda: [0, 0.0])
    counts = defaultdict(int)
    startup = 0.0
    for r in results:
        try:
            trace = json.loads(r.trace.read_text())
        except (OSError, ValueError):
            continue
        startup += trace["startup_s"]
        for name, (calls, self_s) in trace["stats"].items():
            stats[name][0] += calls
            stats[name][1] += self_s
        for name, value in trace["counts"].items():
            counts[name] = (max(counts[name], value)
                            if name == "exact.max_bits" else
                            counts[name] + value)
    values = {}
    for name, (calls, self_s) in stats.items():
        values[f"{name}.calls"] = calls
        values[f"{name}.self_s"] = self_s
    values["cli.self_s"] = values["cli.main.self_s"]
    values["cli.startup_s"] = startup
    values["cli.report_bytes"] = sum(r.report_bytes for r in results)
    values.update(counts)
    values["exact.rref.rank_frac"] = (counts["exact.rref.rank"]
                                      / max(counts["exact.rref.rows"], 1))
    values["roots.enum_accept_ratio"] = (
        counts["roots.positive_systems_found"]
        / max(counts["roots.sign_vectors_tried"], 1))
    values["trace.overhead_frac"] = overhead
    for command, seconds in command_seconds([untraced]).items():
        values[f"cli.{command}.wall_s"] = seconds
    return values


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "liecx" / "cli.py").is_file():
        print("perfbench: run from a liecx checkout (src/liecx/cli.py is "
              "missing)", file=sys.stderr)
        return 2
    declared = json.loads((root / "BENCHMARK.json").read_text())
    # Every job is single-threaded; keeping this process and its jobs on one
    # CPU keeps them off CPUs that other tenants of a shared machine load
    # differently from one job to the next.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    env = job_env(root)
    # compile liecx once so no job pays for writing its bytecode cache
    subprocess.run([sys.executable, "-c", "import liecx.cli"], env=env,
                   check=True)

    wl, setup_s = setup(args.workload, args.seed)
    print(f"{args.workload} seed {args.seed}: {len(wl.jobs)} jobs, "
          f"set-up {setup_s:.4f} s", flush=True)
    digests = {}
    rounds, walls = [], []
    t0 = time.perf_counter()
    while True:
        print(f"round {len(rounds) + 1}", flush=True)
        results, wall = run_round(wl, env, False, digests)
        rounds.append(results)
        walls.append(wall)
        if args.trace or time.perf_counter() - t0 + wall > args.seconds:
            break
    if args.trace:
        print("traced round", flush=True)
        traced, traced_wall = run_round(wl, env, True, digests)
        rounds.append(traced)
        values = per_layer(rounds[0], traced, traced_wall / walls[0] - 1)
        declared_metrics = declared["per_layer"]
    else:
        values = end_to_end(rounds, walls, setup_s)
        declared_metrics = declared["end_to_end"]

    results = [r for rnd in rounds for r in rnd]
    failed = [r for r in results if r.problems]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in declared_metrics}
    counts = {c: sum(1 for j in wl.jobs if j.command == c)
              for c in workloads.COMMANDS}
    for command, seconds in command_seconds(rounds[:len(walls)]).items():
        print(f"{command}_s {seconds:.4f} s over {counts[command]} jobs")
    print(json.dumps({
        # a time-out is a failed job, not a wrong answer
        "correct": all(r.timed_out for r in failed),
        "attempted": len(results),
        "failed": len(failed),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
